"""The production RTR codec, one PDU at a time: the view tests read.

``repro.rtr.decode_runs`` hands each stretch of prefix PDUs of one header
on as one item ``(flags, [VRP, ...])``: a flag column, 1 for an announce
and 0 for a withdrawal, beside the VRPs in wire order.  Here
:func:`decode_pdus` spells each stretch out as one :class:`PrefixPdu` per
record, and :func:`encode_pdu` also packs a :class:`PrefixPdu`, through
``encode_prefixes`` as the cache does.  Everything else is the
production codec's own.
"""

from __future__ import annotations

from repro.rtr import decode_runs, encode_prefixes
from repro.rtr import encode_pdu as encode_control

from .reference_codec import PrefixPdu


def expand(items) -> list:
    """*items* of :func:`decode_runs` or a mux batch, one PDU each."""
    pdus = []
    for item in items:
        if type(item) is tuple:
            flags, vrps = item
            assert len(flags) == len(vrps) and set(flags) <= {0, 1}
            pdus.extend(
                PrefixPdu(flag == 1, vrp) for flag, vrp in zip(flags, vrps))
        else:
            pdus.append(item)
    return pdus


def decode_pdus(data: bytes) -> tuple[list, bytes]:
    """:func:`decode_runs`, with every stretch spelled out."""
    items, rest = decode_runs(data)
    return expand(items), rest


def encode_pdu(pdu) -> bytes:
    """Serialize one PDU, a :class:`PrefixPdu` included."""
    if isinstance(pdu, PrefixPdu):
        return encode_prefixes(pdu.announce, (pdu.vrp,))
    return encode_control(pdu)
