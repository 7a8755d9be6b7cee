"""The per-PDU reference RTR codec: the oracle ``repro.rtr.pdu`` is pinned to.

This is the decoder and encoder ``repro.rtr.pdu`` shipped before it was
rewritten to move between wire bytes and ``VRP`` in one step — one
header, one ``_decode_one`` call, one field at a time — kept here, under
``tests/``, so the production codec has something slow and obvious to
agree with (``test_pdu_differential.py``).  It carries the same rules:
a fixed-size type is judged on its header, Error Report is capped and
parsed by the RFC 6810 §5.10 layout.  It is not imported by ``src/``.

Its prefix PDU is :class:`PrefixPdu`, one VRP each; ``repro.rtr`` has no
such type, since it reads and writes prefix PDUs a stretch at a time.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.resources import ASN, Afi, Prefix
from repro.rp.vrp import VRP
from repro.rtr import (
    CacheReset,
    CacheResponse,
    EndOfData,
    ErrorReport,
    Pdu,
    PduDecodeError,
    PduType,
    ResetQuery,
    SerialNotify,
    SerialQuery,
)
from repro.rtr.pdu import MAX_ERROR_REPORT_LENGTH

_HEADER = struct.Struct(">BBHI")


class PrefixPdu(NamedTuple):
    """One VRP on the wire: announce (flags bit 0 = 1) or withdraw (= 0)."""

    announce: bool
    vrp: VRP


# Body size of every fixed-size type (RFC 6810 §5).
_BODY_SIZE = {
    PduType.SERIAL_NOTIFY: 4,
    PduType.SERIAL_QUERY: 4,
    PduType.RESET_QUERY: 0,
    PduType.CACHE_RESPONSE: 0,
    PduType.IPV4_PREFIX: 12,
    PduType.IPV6_PREFIX: 24,
    PduType.END_OF_DATA: 4,
    PduType.CACHE_RESET: 0,
}


def wire_order(vrp: VRP) -> tuple[int, int, int, int, int]:
    """The served order, spelled out: family, network, length, maxLength,
    AS number — five integers read off the views.

    This was ``repro.rtr.cache_server._wire_order``, the sort key of the
    served table while a ``VRP`` was an object holding a ``Prefix`` and
    an ``ASN``; a ``VRP`` is now a tuple that sorts this way by itself,
    and this key is what says so.
    """
    prefix = vrp.prefix
    return (
        prefix.afi.value, prefix.network, prefix.length,
        vrp.max_length, int(vrp.asn),
    )


def _packet(pdu_type: PduType, session_or_flags: int, body: bytes) -> bytes:
    return _HEADER.pack(0, pdu_type, session_or_flags, 8 + len(body)) + body


def encode_pdu(pdu: Pdu) -> bytes:
    if isinstance(pdu, SerialNotify):
        return _packet(PduType.SERIAL_NOTIFY, pdu.session_id,
                       struct.pack(">I", pdu.serial))
    if isinstance(pdu, SerialQuery):
        return _packet(PduType.SERIAL_QUERY, pdu.session_id,
                       struct.pack(">I", pdu.serial))
    if isinstance(pdu, ResetQuery):
        return _packet(PduType.RESET_QUERY, 0, b"")
    if isinstance(pdu, CacheResponse):
        return _packet(PduType.CACHE_RESPONSE, pdu.session_id, b"")
    if isinstance(pdu, PrefixPdu):
        prefix = pdu.vrp.prefix
        flags = 1 if pdu.announce else 0
        body = struct.pack(
            ">BBBB", flags, prefix.length, pdu.vrp.max_length, 0
        ) + prefix.network.to_bytes(prefix.afi.bits // 8, "big") + struct.pack(
            ">I", int(pdu.vrp.asn)
        )
        pdu_type = (
            PduType.IPV4_PREFIX if prefix.afi is Afi.IPV4
            else PduType.IPV6_PREFIX
        )
        return _packet(pdu_type, 0, body)
    if isinstance(pdu, EndOfData):
        return _packet(PduType.END_OF_DATA, pdu.session_id,
                       struct.pack(">I", pdu.serial))
    if isinstance(pdu, CacheReset):
        return _packet(PduType.CACHE_RESET, 0, b"")
    if isinstance(pdu, ErrorReport):
        text = pdu.text.encode("utf-8")
        body = struct.pack(">I", 0) + struct.pack(">I", len(text)) + text
        return _packet(PduType.ERROR_REPORT, pdu.error_code, body)
    raise TypeError(f"not a PDU: {pdu!r}")


def decode_pdus(data: bytes) -> tuple[list[Pdu], bytes]:
    pdus: list[Pdu] = []
    offset = 0
    while len(data) - offset >= _HEADER.size:
        version, pdu_type, session_or_flags, length = _HEADER.unpack_from(
            data, offset
        )
        if version != 0:
            raise PduDecodeError(f"unsupported RTR version {version}")
        if length < _HEADER.size:
            raise PduDecodeError(f"impossible PDU length {length}")
        try:
            kind = PduType(pdu_type)
        except ValueError:
            raise PduDecodeError(f"unknown PDU type {pdu_type}") from None
        _judge_length(kind, length)
        if len(data) - offset < length:
            break  # incomplete PDU; wait for more bytes
        body = data[offset + _HEADER.size : offset + length]
        pdus.append(_decode_one(kind, session_or_flags, body))
        offset += length
    return pdus, data[offset:]


def _judge_length(kind: PduType, length: int) -> None:
    body = length - _HEADER.size
    if kind is PduType.ERROR_REPORT:
        if length > MAX_ERROR_REPORT_LENGTH:
            raise PduDecodeError(
                f"ERROR_REPORT length {length} is over the "
                f"{MAX_ERROR_REPORT_LENGTH}-byte cap"
            )
        return
    expected = _BODY_SIZE[kind]
    if body == expected:
        return
    if expected == 0:
        raise PduDecodeError(f"{kind.name} must have an empty body")
    if expected == 4 and body < 4:
        raise PduDecodeError("truncated 32-bit field")
    raise PduDecodeError(
        f"{kind.name} body must be {expected} bytes, got {body}"
    )


def _decode_one(kind: PduType, session_or_flags: int, body: bytes) -> Pdu:
    if kind is PduType.SERIAL_NOTIFY:
        return SerialNotify(session_or_flags, _u32(body))
    if kind is PduType.SERIAL_QUERY:
        return SerialQuery(session_or_flags, _u32(body))
    if kind is PduType.RESET_QUERY:
        return ResetQuery()
    if kind is PduType.CACHE_RESPONSE:
        return CacheResponse(session_or_flags)
    if kind in (PduType.IPV4_PREFIX, PduType.IPV6_PREFIX):
        afi = Afi.IPV4 if kind is PduType.IPV4_PREFIX else Afi.IPV6
        address_bytes = afi.bits // 8
        flags, length, max_length, _zero = struct.unpack_from(">BBBB", body)
        network = int.from_bytes(body[4 : 4 + address_bytes], "big")
        asn_value = _u32(body[4 + address_bytes :])
        try:
            prefix = Prefix(afi, network, length)
            return PrefixPdu(
                bool(flags & 1), VRP(prefix, max_length, ASN(asn_value))
            )
        except ValueError as exc:
            raise PduDecodeError(f"bad prefix PDU: {exc}") from exc
    if kind is PduType.END_OF_DATA:
        return EndOfData(session_or_flags, _u32(body))
    if kind is PduType.CACHE_RESET:
        return CacheReset()
    if kind is PduType.ERROR_REPORT:
        if len(body) < 8:
            raise PduDecodeError("truncated error report")
        encapsulated = _u32(body)
        if 8 + encapsulated > len(body):
            raise PduDecodeError(
                f"error report's encapsulated PDU length {encapsulated} "
                f"overruns its {len(body)}-byte body"
            )
        text_length = _u32(body[4 + encapsulated :])
        text = body[8 + encapsulated :]
        if text_length != len(text):
            raise PduDecodeError(
                f"error report's text length {text_length} does not match "
                f"the {len(text)} bytes left for it"
            )
        return ErrorReport(
            error_code=session_or_flags,
            text=text.decode("utf-8", errors="replace"),
        )
    raise AssertionError(f"unhandled {kind}")  # pragma: no cover


def _u32(body: bytes) -> int:
    return struct.unpack_from(">I", body)[0]
