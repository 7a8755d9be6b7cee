"""RTR protocol data units (RFC 6810), with real wire encoding.

The RPKI-to-Router protocol is how validated ROA payloads actually reach
BGP speakers: routers do not run path validation themselves — they hold an
RTR session to a relying-party cache and receive the VRP set as a stream
of prefix PDUs.  The paper's Figure 1 arrow from "route validity" into
"BGP" runs over exactly this channel, so the reproduction implements it:
whatever the cache believes (including whatever an authority manipulated
it into believing) is what every attached router enforces.

The wire format follows RFC 6810: an 8-byte header
``(version, pdu_type, session_or_flags, length)`` followed by the body.
Version 0 PDU types:

====  ====================  ==============================================
  0   Serial Notify         cache → router: "new data available"
  1   Serial Query          router → cache: "give me changes since serial"
  2   Reset Query           router → cache: "give me everything"
  3   Cache Response        cache → router: header of a data burst
  4   IPv4 Prefix           one VRP (announce or withdraw)
  6   IPv6 Prefix           one VRP (announce or withdraw)
  7   End of Data           end of burst; carries the new serial
  8   Cache Reset           cache → router: "I can't do incremental; reset"
 10   Error Report          either direction; fatal
====  ====================  ==============================================

Every type but Error Report has one legal length, so a header is judged
the moment its 8 bytes are in: a wrong length is an error at once, never
a reason to buffer (see docs/rtr.md, "Failure behavior under malformed
PDUs").
"""

from __future__ import annotations

import enum
import re
import struct
import sys
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from operator import and_, itemgetter, le, not_

from ..resources import Afi
from ..rp.vrp import VRP

__all__ = [
    "PduType",
    "RTR_VERSION",
    "MAX_ERROR_REPORT_LENGTH",
    "SerialNotify",
    "SerialQuery",
    "ResetQuery",
    "CacheResponse",
    "EndOfData",
    "CacheReset",
    "ErrorReport",
    "Pdu",
    "encode_pdu",
    "encode_prefixes",
    "decode_runs",
    "PduDecodeError",
]

RTR_VERSION = 0

# The longest Error Report accepted, header included.  Error Report is
# the one variable-length type, so it is the one a peer could otherwise
# make a receiver buffer without bound.
MAX_ERROR_REPORT_LENGTH = 64 * 1024

_HEADER = struct.Struct(">BBHI")  # version, type, session/flags, length
_U32 = struct.Struct(">I")


class PduType(enum.IntEnum):
    SERIAL_NOTIFY = 0
    SERIAL_QUERY = 1
    RESET_QUERY = 2
    CACHE_RESPONSE = 3
    IPV4_PREFIX = 4
    IPV6_PREFIX = 6
    END_OF_DATA = 7
    CACHE_RESET = 8
    ERROR_REPORT = 10


# The one wire length (header included) of each fixed-size type.
_FIXED_LENGTH = {
    PduType.SERIAL_NOTIFY: 12,
    PduType.SERIAL_QUERY: 12,
    PduType.RESET_QUERY: 8,
    PduType.CACHE_RESPONSE: 8,
    PduType.IPV4_PREFIX: 20,
    PduType.IPV6_PREFIX: 32,
    PduType.END_OF_DATA: 12,
    PduType.CACHE_RESET: 8,
}
# The same, indexed by the type byte (None for a type with no one
# length): the decoder's per-PDU check is an index, not a call.
_LENGTH_OF_TYPE = tuple(map(_FIXED_LENGTH.get, range(256)))

# The two prefix PDU types, each a whole record: header, flags, prefix
# length, maxLength, a zero byte, address (as a VRP holds it: an integer
# for IPv4, 16 bytes for IPv6), ASN.
_PREFIX_TYPES = (
    (PduType.IPV4_PREFIX, Afi.IPV4, struct.Struct(">8sBBBxII")),
    (PduType.IPV6_PREFIX, Afi.IPV6, struct.Struct(">8sBBBx16sI")),
)

# Per family, by address width and then by flags byte: one record as
# its big-endian 32-bit words, header and flags filled in, the rest zero
# (the encoder's template), and the record's length.
_PREFIX_TEMPLATE = {
    afi.bits: tuple(
        (array("I", struct.unpack(f">{record.size // 4}I", record.pack(
            _HEADER.pack(RTR_VERSION, pdu_type, 0, record.size),
            flags, 0, 0, bytes(16) if afi is Afi.IPV6 else 0, 0,
        ))), record.size)
        for flags in (0, 1)
    )
    for pdu_type, afi, record in _PREFIX_TYPES
}


def _stretch_pattern(pdu_type: PduType, size: int) -> re.Pattern[bytes]:
    """Matches the records from a prefix PDU on whose 8-byte header
    repeats its own: version, type, the zero field it carries, length."""
    version_type = re.escape(bytes((RTR_VERSION, pdu_type)))
    length = re.escape(_U32.pack(size))
    body = b".{%d}" % (size - _HEADER.size)
    return re.compile(
        version_type + b"(..)" + length + body
        + b"(?:" + version_type + rb"\1" + length + body + b")*",
        re.DOTALL,
    )


# Per prefix type, what the decoder reads a stretch with: the pattern
# that finds where it ends, the family, and two tables indexed by a
# byte of the wire.  ``cap[m]`` is maxLength *m* where the family allows
# it and -1 where not, so one ``<=`` judges length <= maxLength <= bits;
# ``host[n]`` is the host-bit mask of prefix length *n*, read once every
# length is known legal.
_PREFIX_DECODE = {
    pdu_type: (
        _stretch_pattern(pdu_type, record.size),
        afi,
        tuple(m if m <= afi.bits else -1 for m in range(256)),
        tuple((1 << (afi.bits - n)) - 1 for n in range(afi.bits + 1)),
    )
    for pdu_type, afi, record in _PREFIX_TYPES
}
# An IPv6 prefix PDU's address, the 16 bytes a VRP holds.
_IPV6_ADDRESS = struct.Struct(">12x16s4x")
_FIRST = itemgetter(0)
# array("I") holds native 32-bit words (4 bytes on every CPython
# platform); the wire's are big-endian.
_LITTLE_ENDIAN = sys.byteorder == "little"

# A flags byte's announce bit (bit 0), as a bytes.translate table.
_ANNOUNCE_BIT = bytes(flags & 1 for flags in range(256))


class PduDecodeError(Exception):
    """Malformed RTR bytes (bad version, bad length, unknown type)."""


@dataclass(frozen=True)
class SerialNotify:
    session_id: int
    serial: int


@dataclass(frozen=True)
class SerialQuery:
    session_id: int
    serial: int


@dataclass(frozen=True)
class ResetQuery:
    pass


@dataclass(frozen=True)
class CacheResponse:
    session_id: int


@dataclass(frozen=True)
class EndOfData:
    session_id: int
    serial: int


@dataclass(frozen=True)
class CacheReset:
    pass


@dataclass(frozen=True)
class ErrorReport:
    error_code: int
    text: str = ""


# Every PDU but the prefix PDUs, which travel as stretches: packed by
# encode_prefixes, read by decode_runs.
Pdu = (
    SerialNotify | SerialQuery | ResetQuery | CacheResponse
    | EndOfData | CacheReset | ErrorReport
)

# One prefix PDU's VRP as router tables and chained caches hold it: the
# plain tuple ``(address bits, network, length, maxLength, AS number)``
# a ``VRP`` of the same fields equals and hashes as.  The cyclic garbage
# collector untracks a tuple of ints and bytes at its first pass, and
# never an instance of a tuple subclass such as ``VRP``.
VrpRecord = tuple[int, int | bytes, int, int, int]

# A stretch of prefix PDUs of one header, as decode_runs hands it on:
# ``(flags, [record, ...])``, where ``flags[i]`` is 1 if the i-th PDU
# announces its record and 0 if it withdraws it.
Stretch = tuple[bytes, list[VrpRecord]]


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def _packet(pdu_type: PduType, session_or_flags: int, body: bytes) -> bytes:
    return _HEADER.pack(
        RTR_VERSION, pdu_type, session_or_flags, _HEADER.size + len(body)
    ) + body


def encode_prefixes(announce: bool, vrps: Iterable[VrpRecord]) -> bytes:
    """The prefix PDUs announcing (or withdrawing) *vrps*, in order.

    Written a run of one family at a time, with no Python step per PDU:
    the run's five fields are columns, the records start as copies of
    one template, and each column is laid into them by stride slices —
    addresses and ASNs as 32-bit words (an IPv6 address is four), the
    lengths and maxLengths as bytes.
    """
    flags = 1 if announce else 0
    parts = []
    for bits, run in groupby(vrps, _FIRST):
        template, size = _PREFIX_TEMPLATE[bits][flags]
        _bits, networks, lengths, max_lengths, asns = zip(*run)
        stride = size // 4
        words = template * len(asns)
        words[stride - 1 :: stride] = array("I", asns)
        if bits == 32:
            words[3::stride] = array("I", networks)
        else:
            # The 16 wire bytes, read as words of their value: the whole
            # record is swapped back to wire order below.
            address = array("I", b"".join(networks))
            if _LITTLE_ENDIAN:
                address.byteswap()
            for word in range(4):
                words[3 + word :: stride] = address[word::4]
        if _LITTLE_ENDIAN:
            words.byteswap()
        record = bytearray(words)
        record[9::size] = bytes(lengths)
        record[10::size] = bytes(max_lengths)
        parts.append(record)
    return b"".join(parts)


def encode_pdu(pdu: Pdu) -> bytes:
    """Serialize one PDU to RFC 6810 wire bytes."""
    if isinstance(pdu, SerialNotify):
        return _packet(PduType.SERIAL_NOTIFY, pdu.session_id,
                       _U32.pack(pdu.serial))
    if isinstance(pdu, SerialQuery):
        return _packet(PduType.SERIAL_QUERY, pdu.session_id,
                       _U32.pack(pdu.serial))
    if isinstance(pdu, ResetQuery):
        return _packet(PduType.RESET_QUERY, 0, b"")
    if isinstance(pdu, CacheResponse):
        return _packet(PduType.CACHE_RESPONSE, pdu.session_id, b"")
    if isinstance(pdu, EndOfData):
        return _packet(PduType.END_OF_DATA, pdu.session_id,
                       _U32.pack(pdu.serial))
    if isinstance(pdu, CacheReset):
        return _packet(PduType.CACHE_RESET, 0, b"")
    if isinstance(pdu, ErrorReport):
        # No encapsulated PDU: its length field is zero.
        text = pdu.text.encode("utf-8")
        body = _U32.pack(0) + _U32.pack(len(text)) + text
        return _packet(PduType.ERROR_REPORT, pdu.error_code, body)
    raise TypeError(f"not a PDU: {pdu!r}")


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


# The three types whose body is one serial number.
_WITH_SERIAL = {
    PduType.SERIAL_NOTIFY: SerialNotify,
    PduType.SERIAL_QUERY: SerialQuery,
    PduType.END_OF_DATA: EndOfData,
}


def decode_runs(data: bytes) -> tuple[list[Pdu | Stretch], bytes]:
    """Decode as many complete PDUs as *data* contains.

    Each stretch of consecutive prefix PDUs of one header comes as one
    :data:`Stretch` ``(flags, [record, ...])`` — a plain ``tuple``,
    which no PDU is — and every other PDU as itself, in wire order.  A
    router applies a burst a stretch at a time; the mux counts a
    stretch's PDUs against its fairness budget.

    A stretch is read a column at a time, with no Python step per PDU:
    one pattern match finds where its header stops repeating, the
    flags, lengths and maxLengths are stride slices of it, the
    addresses and ASNs whole columns, and every range check
    ``VRP.from_integers`` makes is a C-level pass over the columns.  A
    refused stretch is handed to ``from_integers`` record by record, so
    the error names the first refused record in its words.  The records
    are the tuples ``zip`` yields over the five columns: each a
    :data:`VrpRecord`, not a ``VRP``.

    Returns ``(items, remainder)`` — the remainder is a partial trailing
    PDU to be retried once more bytes arrive (stream semantics, like the
    TCP connection RTR really runs over).  The remainder never holds
    more than one PDU of a legal length: a header that announces any
    other length raises before a byte of its body is waited for.
    """
    items: list[Pdu | Stretch] = []
    append = items.append
    offset, end = 0, len(data)
    while end - offset >= _HEADER.size:
        version, pdu_type, session_or_flags, length = _HEADER.unpack_from(
            data, offset
        )
        if version != RTR_VERSION:
            raise PduDecodeError(f"unsupported RTR version {version}")
        if length != _LENGTH_OF_TYPE[pdu_type]:
            _check_length(pdu_type, length)
        if end - offset < length:
            break  # incomplete PDU; wait for more bytes
        if pdu_type in _PREFIX_DECODE:
            pattern, afi, cap, host = _PREFIX_DECODE[pdu_type]
            stop = pattern.match(
                data, offset, end - (end - offset) % length
            ).end()
            run = data[offset:stop]
            lengths, max_lengths = run[9::length], run[10::length]
            # The records as big-endian 32-bit words: the ASN is a
            # record's last word, an IPv4 address the one before it.
            words = array("I", run)
            if _LITTLE_ENDIAN:
                words.byteswap()
            asns = words[length // 4 - 1 :: length // 4]
            if afi is Afi.IPV4:
                networks = numbers = words[3::5]
            else:
                networks = list(map(_FIRST, _IPV6_ADDRESS.iter_unpack(run)))
                numbers = map(int.from_bytes, networks, repeat("big"))
            # A fixed-width address or ASN is in range by its width.
            if not all(chain(
                map(le, lengths, map(cap.__getitem__, max_lengths)),
                map(not_, map(and_, numbers, map(host.__getitem__, lengths))),
            )):
                _refuse(afi, networks, lengths, max_lengths, asns)
            append((
                run[8::length].translate(_ANNOUNCE_BIT),
                list(zip(
                    repeat(afi.bits), networks, lengths, max_lengths, asns
                )),
            ))
            offset = stop
            continue
        if pdu_type == PduType.ERROR_REPORT:
            append(_decode_error_report(
                session_or_flags, data[offset + _HEADER.size : offset + length]
            ))
        elif pdu_type == PduType.CACHE_RESPONSE:
            append(CacheResponse(session_or_flags))
        elif pdu_type == PduType.RESET_QUERY:
            append(ResetQuery())
        elif pdu_type == PduType.CACHE_RESET:
            append(CacheReset())
        else:
            append(_WITH_SERIAL[pdu_type](
                session_or_flags, *_U32.unpack_from(data, offset + _HEADER.size)
            ))
        offset += length
    return items, data[offset:]


def _refuse(afi: Afi, networks, lengths, max_lengths, asns) -> None:
    """Raise what ``VRP.from_integers`` says of the first record of a
    stretch it refuses: the column checks found one, and the complaint
    is its, word for word."""
    if afi is Afi.IPV6:
        networks = map(int.from_bytes, networks, repeat("big"))
    try:
        for record in zip(networks, lengths, max_lengths, asns):
            VRP.from_integers(afi, *record)
    except ValueError as exc:
        raise PduDecodeError(f"bad prefix PDU: {exc}") from exc


def _check_length(pdu_type: int, length: int) -> None:
    """Raise unless *length* is one a PDU of *pdu_type* may announce.

    Called only for a length that is not the type's fixed size, so it
    returns for an Error Report within its cap and for nothing else.
    """
    if length < _HEADER.size:
        raise PduDecodeError(f"impossible PDU length {length}")
    try:
        kind = PduType(pdu_type)
    except ValueError:
        raise PduDecodeError(f"unknown PDU type {pdu_type}") from None
    body = length - _HEADER.size
    if kind is PduType.ERROR_REPORT:
        if length > MAX_ERROR_REPORT_LENGTH:
            raise PduDecodeError(
                f"ERROR_REPORT length {length} is over the "
                f"{MAX_ERROR_REPORT_LENGTH}-byte cap"
            )
        return
    expected = _FIXED_LENGTH[kind] - _HEADER.size
    if expected == 0:
        raise PduDecodeError(f"{kind.name} must have an empty body")
    if expected == _U32.size and body < expected:
        raise PduDecodeError("truncated 32-bit field")
    raise PduDecodeError(
        f"{kind.name} body must be {expected} bytes, got {body}"
    )


def _decode_error_report(error_code: int, body: bytes) -> ErrorReport:
    """RFC 6810 §5.10: length + encapsulated PDU, then length + text."""
    if len(body) < 2 * _U32.size:
        raise PduDecodeError("truncated error report")
    (encapsulated,) = _U32.unpack_from(body)
    text_at = 2 * _U32.size + encapsulated
    if text_at > len(body):
        raise PduDecodeError(
            f"error report's encapsulated PDU length {encapsulated} "
            f"overruns its {len(body)}-byte body"
        )
    (text_length,) = _U32.unpack_from(body, text_at - _U32.size)
    if text_length != len(body) - text_at:
        raise PduDecodeError(
            f"error report's text length {text_length} does not match "
            f"the {len(body) - text_at} bytes left for it"
        )
    return ErrorReport(
        error_code=error_code,
        text=body[text_at:].decode("utf-8", errors="replace"),
    )
