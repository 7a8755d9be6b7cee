"""The per-PDU reference router: the oracle ``RtrRouterClient`` is pinned to.

This is the router state machine ``repro.rtr.router_client`` ran before
it applied a burst a stretch at a time — every prefix PDU decoded to its own
``PrefixPdu``, dispatched alone, queued alone and applied alone at End of
Data, and the chained cache's ``(reset, announced, withdrawn)`` built
from one dict entry per PDU — kept here, under ``tests/``, so the
production router has something slow and obvious to agree with
(``test_pdu_differential.py``).  It reads and writes bytes through the
per-PDU reference codec.  It is not imported by ``src/``.
"""

from __future__ import annotations

from repro.rtr import (
    CacheReset,
    CacheResponse,
    EndOfData,
    ErrorReport,
    PduDecodeError,
    ResetQuery,
    RouterState,
    SerialNotify,
    SerialQuery,
)
from repro.rtr.channel import ChannelClosed

from . import reference_codec as reference
from .reference_codec import PrefixPdu


class ReferenceRouter:
    """One router's RTR session and VRP table, one PDU at a time."""

    def __init__(self, pipe, *, on_burst=None):
        self.pipe = pipe
        self._on_burst = on_burst
        self.state = RouterState.IDLE
        self.serial = 0
        self.session_id = None
        self.vrps = set()
        self.pending = []
        self._burst_is_reset = False
        self._receive_buffer = b""
        self.errors = []

    def connect(self):
        self._burst_is_reset = True
        self.state = RouterState.SYNCING
        self._send(ResetQuery())

    def poll(self):
        if self.session_id is None:
            self.connect()
            return
        self._burst_is_reset = False
        self.state = RouterState.SYNCING
        self._send(SerialQuery(self.session_id, self.serial))

    def process(self):
        if self.state is RouterState.FAILED:
            return
        try:
            data = self._receive_buffer + self.pipe.to_router.receive()
        except ChannelClosed:
            self._fail("connection closed")
            return
        try:
            pdus, self._receive_buffer = reference.decode_pdus(data)
        except PduDecodeError as exc:
            self._send(ErrorReport(error_code=0, text=str(exc)))
            self._fail(f"undecodable bytes from cache: {exc}")
            return
        for pdu in pdus:
            self._handle(pdu)
            if self.state is RouterState.FAILED:
                return

    def _handle(self, pdu):
        if isinstance(pdu, PrefixPdu):
            self.pending.append(pdu)
        elif isinstance(pdu, SerialNotify):
            if self.state is RouterState.SYNCED:
                self.session_id = pdu.session_id
                self.poll()
        elif isinstance(pdu, CacheResponse):
            if self.session_id is not None and pdu.session_id != self.session_id:
                self._burst_is_reset = True
            self.session_id = pdu.session_id
            self.pending.clear()
            self.state = RouterState.SYNCING
        elif isinstance(pdu, EndOfData):
            if self._burst_is_reset:
                self.vrps = set()
            for announce, vrp in self.pending:
                if announce:
                    self.vrps.add(vrp)
                else:
                    self.vrps.discard(vrp)
            self.serial = pdu.serial
            self.session_id = pdu.session_id
            self.state = RouterState.SYNCED
            if self._on_burst is not None:
                fate = {vrp: announce for announce, vrp in self.pending}
                self._on_burst(
                    self._burst_is_reset,
                    [vrp for vrp, announce in fate.items() if announce],
                    [vrp for vrp, announce in fate.items() if not announce],
                )
            self.pending.clear()
        elif isinstance(pdu, CacheReset):
            self._burst_is_reset = True
            self.state = RouterState.SYNCING
            self._send(ResetQuery())
        elif isinstance(pdu, ErrorReport):
            self._fail(f"cache error {pdu.error_code}: {pdu.text}")

    def _send(self, pdu):
        try:
            self.pipe.to_cache.send(reference.encode_pdu(pdu))
        except ChannelClosed:
            self._fail("connection closed")

    def _fail(self, reason):
        self.errors.append(reason)
        self.state = RouterState.FAILED
        self._receive_buffer = b""
