"""The router side of RTR: a BGP speaker's VRP table.

Implements the RFC 6810 router state machine: reset synchronization on
connect, incremental pulls on Serial Notify, and full resynchronization on
Cache Reset or a session-id change.  The resulting :meth:`vrp_set` is what
the router's route selection uses — plug it into
:class:`repro.bgp.SelectionPolicy` via :func:`repro.rp.validate` and the
whole paper pipeline runs over a faithful cache-to-router channel.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable
from itertools import compress, repeat
from operator import not_

from ..rp.vrp import VRP, VrpSet
from .channel import ChannelClosed, DuplexPipe
from .pdu import (
    CacheReset,
    CacheResponse,
    EndOfData,
    ErrorReport,
    Pdu,
    PduDecodeError,
    ResetQuery,
    SerialNotify,
    SerialQuery,
    Stretch,
    VrpRecord,
    decode_runs,
    encode_pdu,
)

__all__ = ["RouterState", "RtrRouterClient"]


def _apply_folded(
    vrps: set[VrpRecord], stretches: Iterable[Stretch]
) -> tuple[list[VrpRecord], list[VrpRecord]]:
    """Apply *stretches* to *vrps* as one fold and return the records
    they announce and withdraw: the last PDU naming a VRP decides its
    fate, its first one where it stands in the lists."""
    fate = {}
    for flags, run in stretches:
        fate.update(zip(run, flags))
    announced = list(compress(fate, fate.values()))
    withdrawn = list(compress(fate, map(not_, fate.values())))
    vrps.difference_update(withdrawn)
    vrps.update(announced)
    return announced, withdrawn


class RouterState(enum.Enum):
    IDLE = "idle"              # connected, nothing requested yet
    SYNCING = "syncing"        # awaiting/receiving a data burst
    SYNCED = "synced"          # up to date as of self.serial
    FAILED = "failed"          # protocol error; session dead


class RtrRouterClient:
    """One router's RTR session and VRP table.

    The table holds each VRP as the plain tuple the wire decoder built
    (a :data:`~repro.rtr.pdu.VrpRecord`), which the cyclic collector
    stops walking; :meth:`vrp_set` builds the ``VRP`` objects a caller
    reads.

    *on_burst*, if given, is called at every End of Data with
    ``(reset, announced, withdrawn)`` — the net effect of the burst just
    applied, as lists of those records, order already resolved; on a
    reset burst the table was emptied first, so *announced* is the whole
    new table.  It is how a chained cache re-serves exactly what it was
    handed instead of rediscovering it from the table.  A plain router
    passes none and keeps nothing beyond its table.
    """

    def __init__(
        self,
        pipe: DuplexPipe,
        *,
        on_burst: Callable[
            [bool, list[VrpRecord], list[VrpRecord]], None
        ] | None = None,
    ):
        self.pipe = pipe
        self._on_burst = on_burst
        self.state = RouterState.IDLE
        self.serial = 0
        self.session_id: int | None = None
        self._vrps: set[VrpRecord] = set()
        # PDU application is order-sensitive: the same VRP may be announced
        # at one serial and withdrawn at a later one within a single burst,
        # so the burst's stretches of prefix PDUs queue in wire order.
        self._pending: list[Stretch] = []
        self._burst_is_reset = False
        self._receive_buffer = b""
        self.errors: list[str] = []

    # -- queries -----------------------------------------------------------

    def vrp_set(self) -> VrpSet:
        """The router's current validated-ROA table, each member a
        ``VRP`` built here from the record the table holds."""
        return VrpSet(map(tuple.__new__, repeat(VRP), self._vrps))

    @property
    def vrp_count(self) -> int:
        return len(self._vrps)

    # -- actions ------------------------------------------------------------

    def connect(self) -> None:
        """Start the session with a full reset synchronization."""
        self._burst_is_reset = True
        self.state = RouterState.SYNCING
        self._send(ResetQuery())

    def poll(self) -> None:
        """Ask for changes since our serial (routers also poll on a timer)."""
        if self.session_id is None:
            self.connect()
            return
        self._burst_is_reset = False
        self.state = RouterState.SYNCING
        self._send(SerialQuery(self.session_id, self.serial))

    def process(self) -> None:
        """Consume everything the cache has sent since the last call."""
        if self.state is RouterState.FAILED:
            return
        try:
            data = self._receive_buffer + self.pipe.to_router.receive()
        except ChannelClosed:
            self._fail("connection closed")
            return
        try:
            items, self._receive_buffer = decode_runs(data)
        except PduDecodeError as exc:
            self._send(ErrorReport(error_code=0, text=str(exc)))
            self._fail(f"undecodable bytes from cache: {exc}")
            return
        for item in items:
            # A burst is almost all prefix PDUs, read as (flags, [vrp,
            # ...]) stretches and queued as they are until End of Data.
            if type(item) is tuple:
                self._pending.append(item)
            else:
                self._handle(item)
                if self.state is RouterState.FAILED:
                    return  # a fatal error ends the session mid-read

    # -- state machine -------------------------------------------------------------

    def _handle(self, pdu: Pdu) -> None:
        if isinstance(pdu, SerialNotify):
            if self.state is RouterState.SYNCED:
                self.session_id = pdu.session_id
                self.poll()
            return
        if isinstance(pdu, CacheResponse):
            if self.session_id is not None and pdu.session_id != self.session_id:
                # Cache restarted with new state: our serial is meaningless.
                self.session_id = pdu.session_id
                self._burst_is_reset = True
            self.session_id = pdu.session_id
            self._pending.clear()
            self.state = RouterState.SYNCING
            return
        if isinstance(pdu, EndOfData):
            if self._burst_is_reset:
                self._vrps = set()
            vrps, pending = self._vrps, self._pending
            if self._on_burst is None:
                # A stretch that only announces or only withdraws is one
                # set operation.
                for flags, run in pending:
                    if 0 not in flags:
                        vrps.update(run)
                    elif 1 not in flags:
                        vrps.difference_update(run)
                    else:
                        _apply_folded(vrps, ((flags, run),))
            else:
                burst = _apply_folded(vrps, pending)
            self.serial = pdu.serial
            self.session_id = pdu.session_id
            self.state = RouterState.SYNCED
            if self._on_burst is not None:
                self._on_burst(self._burst_is_reset, *burst)
            pending.clear()
            return
        if isinstance(pdu, CacheReset):
            self._burst_is_reset = True
            self.state = RouterState.SYNCING
            self._send(ResetQuery())
            return
        if isinstance(pdu, ErrorReport):
            self._fail(f"cache error {pdu.error_code}: {pdu.text}")
            return

    def _send(self, pdu: Pdu) -> None:
        try:
            self.pipe.to_cache.send(encode_pdu(pdu))
        except ChannelClosed:
            self._fail("connection closed")

    def _fail(self, reason: str) -> None:
        self.errors.append(reason)
        self.state = RouterState.FAILED
        self._receive_buffer = b""  # never read again
