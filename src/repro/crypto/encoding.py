"""Canonical deterministic serialization for signed objects.

Production RPKI objects are DER-encoded ASN.1 inside CMS wrappers.  The
property that matters for this reproduction is *canonicality*: the same
logical object must always serialize to the same bytes, so that signatures,
manifest hashes, and monitor diffs are stable.  We implement a compact
tag-length-value scheme ("CTLV") with exactly that property:

======  =============================================
tag     payload
======  =============================================
``N``   null
``T``   boolean true     (no payload)
``F``   boolean false    (no payload)
``I``   signed integer   (minimal big-endian two's complement)
``B``   byte string
``S``   UTF-8 text string
``L``   list             (concatenated encodings of the items)
``M``   map              (keys sorted by encoded bytes; key/value pairs)
======  =============================================

Lengths are 4-byte big-endian.  Maps reject duplicate keys on decode, and
the decoder rejects trailing garbage — both classic sources of PKI
malleability bugs.

This module is the serialization *engine* — the CTLV codec is the single
hottest function family in an Internet-scale refresh, so both directions
are built for throughput:

- :func:`encode` is a single-buffer iterative encoder.  Containers
  reserve a 4-byte length slot up front and backpatch it once the body is
  written, so no list or map ever materializes its body in a side buffer
  and copies it into the parent (the old recursive codec built every
  container twice).  Map pairs are emitted in iteration order and the
  body is rebuilt in sorted-key order only when iteration order was not
  already canonical.
- :func:`decode` is a zero-copy decoder: one :class:`memoryview` over the
  input plus an offset cursor.  Container children decode against an
  explicit ``limit`` instead of a per-child ``data[:end]`` slice copy,
  which made the old decoder quadratic on manifest-sized lists.
- Integer minimality is checked arithmetically (the payload length must
  equal the canonical width for the decoded value) instead of re-encoding
  every integer and comparing bytes.
- The typed leaf readers (:func:`read_int`, :func:`read_str`,
  :func:`read_bytes`, :func:`open_container`, :func:`read_header`) read
  one value of a *declared* type at an offset.  They are what the
  per-type object readers of :mod:`repro.rpki` are written in: a refresh
  goes from wire bytes to typed objects through them and never builds
  the generic tree :func:`decode` returns.
- The typed leaf writers (:func:`write_int`, :func:`write_str`,
  :func:`write_bytes`, :func:`write_container`) are their inverse: each
  returns the bytes :func:`encode` gives one value of a declared type,
  and a container is its header, with the length of a body the caller
  has already written, then that body.  An authority builds its objects
  through them and never builds the payload dictionary :func:`encode`
  walks.

Nesting is capped at :data:`MAX_NESTING` containers in both directions —
a deterministic :class:`EncodingError` instead of an interpreter
``RecursionError`` on decoder-bomb inputs (see
:func:`repro.repository.faults.nested_bomb`).

The previous recursive codec is preserved verbatim (plus the same nesting
cap) as ``tests/crypto/reference_codec.py``; the differential fuzz suite
next to it pins this engine byte-identical to it on random value trees
and agreement on every malformed-input rejection class.
"""

from __future__ import annotations

import struct
from typing import Any

from .errors import EncodingError, SchemaError

__all__ = [
    "encode", "decode", "MAX_NESTING",
    "read_header", "read_int", "read_str", "read_bytes", "open_container",
    "write_int", "write_str", "write_bytes", "write_container",
    "LIST", "MAP",
]

_LEN = struct.Struct(">I")
_HDR = struct.Struct(">BI")  # tag byte + 4-byte length, packed in one call

#: Maximum container nesting depth the codec accepts, in both directions.
#: Real objects nest a handful of levels; the cap turns a decoder-bomb
#: payload into a deterministic :class:`EncodingError` instead of a
#: Python ``RecursionError``.
MAX_NESTING = 64

Encodable = None | bool | int | bytes | str | list | tuple | dict

# Scalar tags with fixed empty payloads, pre-packed.
_NULL = b"N\x00\x00\x00\x00"
_TRUE = b"T\x00\x00\x00\x00"
_FALSE = b"F\x00\x00\x00\x00"
_LIST_OPEN = b"L\x00\x00\x00\x00"
_MAP_OPEN = b"M\x00\x00\x00\x00"

_DONE = object()  # iterator-exhausted sentinel (never a user value)


def encode(value: Any) -> bytes:
    """Canonically encode *value* (CTLV).  Deterministic by construction.

    Single pass, single buffer: container headers are written with a
    zero length slot that is backpatched when the container closes.
    """
    out = bytearray()
    pack = _HDR.pack
    pack_into = _LEN.pack_into
    # One frame per open container, innermost last.
    #   list frame: [False, item_iterator, body_start]
    #   map frame:  [True, pair_iterator, body_start, spans,
    #                pending_value, value_pending?]
    # A map frame's spans list collects [key_end, pair_end] per pair
    # (key_start is the previous pair's end), so the close step can
    # verify canonical key order — and rebuild the body only if needed.
    stack: list = []
    while True:
        if value is None:
            out += _NULL
        elif value is True:
            out += _TRUE
        elif value is False:
            out += _FALSE
        elif isinstance(value, int):
            # Minimal-length big-endian two's complement; the +8 keeps a
            # sign bit (and maps value 0 to the single byte 0x00).
            width = (value.bit_length() + 8) >> 3
            out += pack(73, width)  # b"I"
            out += value.to_bytes(width, "big", signed=True)
        elif isinstance(value, bytes):
            out += pack(66, len(value))  # b"B"
            out += value
        elif isinstance(value, str):
            payload = value.encode("utf-8")
            out += pack(83, len(payload))  # b"S"
            out += payload
        elif isinstance(value, (list, tuple)):
            if len(stack) >= MAX_NESTING:
                raise EncodingError(
                    f"nesting deeper than {MAX_NESTING} containers"
                )
            out += _LIST_OPEN
            stack.append([False, iter(value), len(out)])
        elif isinstance(value, dict):
            if len(stack) >= MAX_NESTING:
                raise EncodingError(
                    f"nesting deeper than {MAX_NESTING} containers"
                )
            out += _MAP_OPEN
            stack.append([True, iter(value.items()), len(out), [], None, False])
        else:
            raise EncodingError(
                f"cannot canonically encode {type(value).__name__}"
            )

        # Pull the next value from the innermost open frame, closing
        # finished frames (backpatching their length slots) as we go.
        while stack:
            frame = stack[-1]
            if not frame[0]:  # list
                nxt = next(frame[1], _DONE)
                if nxt is _DONE:
                    stack.pop()
                    body_start = frame[2]
                    pack_into(out, body_start - 4, len(out) - body_start)
                    continue
                value = nxt
                break
            # map
            spans = frame[3]
            if frame[5]:
                # A key just finished; its value is pending.
                spans[-1][0] = len(out)  # key_end
                value = frame[4]
                frame[4] = None
                frame[5] = False
                break
            if spans:
                spans[-1][1] = len(out)  # previous pair_end
            nxt = next(frame[1], _DONE)
            if nxt is _DONE:
                stack.pop()
                _close_map(out, frame[2], spans)
                continue
            spans.append([0, 0])
            frame[4] = nxt[1]
            frame[5] = True
            value = nxt[0]
            break
        else:
            return bytes(out)


def _close_map(out: bytearray, body_start: int, spans: list) -> None:
    """Finish a map body: enforce canonical key order, backpatch length.

    Pairs were written in dict-iteration order.  Canonical CTLV sorts
    pairs by encoded key bytes, so verify order in place and rebuild the
    body only when iteration order was not already sorted.
    """
    key_start = body_start
    previous: bytearray | None = None
    in_order = True
    for key_end, pair_end in spans:
        key_bytes = out[key_start:key_end]
        if previous is not None and key_bytes < previous:
            in_order = False
            break
        previous = key_bytes
        key_start = pair_end
    if not in_order:
        pairs = []
        key_start = body_start
        for key_end, pair_end in spans:
            pairs.append((out[key_start:key_end], out[key_start:pair_end]))
            key_start = pair_end
        pairs.sort(key=lambda pair: pair[0])
        del out[body_start:]
        for _key_bytes, chunk in pairs:
            out += chunk
    _LEN.pack_into(out, body_start - 4, len(out) - body_start)


def decode(data: bytes) -> Any:
    """Decode one CTLV value; rejects trailing bytes and duplicate map keys.

    Zero-copy: the input is wrapped in one :class:`memoryview` and every
    container child is decoded against an explicit limit — no per-child
    slice copies.
    """
    buf = data if isinstance(data, memoryview) else memoryview(data)
    total = len(buf)
    value, consumed = _decode_one(buf, 0, total, MAX_NESTING)
    if consumed != total:
        raise EncodingError(f"{total - consumed} trailing bytes after value")
    return value


def _decode_one(
    buf: memoryview, offset: int, limit: int, depth: int
) -> tuple[Any, int]:
    """Decode the value at *offset*, reading no further than *limit*.

    Returns ``(value, end_offset)``.  *depth* is the remaining container
    budget; opening a container at zero raises.
    """
    if offset + 5 > limit:
        raise EncodingError("truncated header")
    tag = buf[offset]
    (length,) = _LEN.unpack_from(buf, offset + 1)
    start = offset + 5
    end = start + length
    if end > limit:
        raise EncodingError("truncated payload")

    if tag == 73:  # I
        if start == end:
            raise EncodingError("empty integer payload")
        value = int.from_bytes(buf[start:end], "big", signed=True)
        # Minimality, checked arithmetically: a canonical encoding is
        # exactly as wide as the encoder's (bit_length + 8) >> 3 rule —
        # any extra leading 0x00/0xff byte makes the payload wider.
        if (value.bit_length() + 8) >> 3 != length:
            raise EncodingError("non-minimal integer encoding")
        return value, end
    if tag == 83:  # S
        try:
            return str(buf[start:end], "utf-8"), end
        except UnicodeDecodeError as exc:
            raise EncodingError("invalid UTF-8 in string") from exc
    if tag == 66:  # B
        return bytes(buf[start:end]), end
    if tag == 76:  # L
        if depth == 0:
            raise EncodingError(
                f"nesting deeper than {MAX_NESTING} containers"
            )
        items: list = []
        append = items.append
        cursor = start
        child_depth = depth - 1
        while cursor < end:
            item, cursor = _decode_one(buf, cursor, end, child_depth)
            append(item)
        return items, end
    if tag == 77:  # M
        if depth == 0:
            raise EncodingError(
                f"nesting deeper than {MAX_NESTING} containers"
            )
        result: dict = {}
        previous_key_bytes: bytes | None = None
        cursor = start
        child_depth = depth - 1
        while cursor < end:
            key_start = cursor
            key, cursor = _decode_one(buf, key_start, end, child_depth)
            key_bytes = bytes(buf[key_start:cursor])
            if previous_key_bytes is not None \
                    and key_bytes <= previous_key_bytes:
                raise EncodingError("map keys not strictly sorted")
            previous_key_bytes = key_bytes
            value, cursor = _decode_one(buf, cursor, end, child_depth)
            result[key] = value
        return result, end
    if tag == 78:  # N
        if length:
            raise EncodingError("tag b'N' must have empty payload")
        return None, end
    if tag == 84:  # T
        if length:
            raise EncodingError("tag b'T' must have empty payload")
        return True, end
    if tag == 70:  # F
        if length:
            raise EncodingError("tag b'F' must have empty payload")
        return False, end
    raise EncodingError(f"unknown tag {bytes(buf[offset:offset + 1])!r}")


# -- typed leaf readers -------------------------------------------------------
#
# What a schema-directed reader (repro.rpki's per-type object readers) is
# built from: each reads ONE value of a declared type at *offset*, no
# further than *limit* (the end of the enclosing container, never past
# ``len(buf)``), and returns ``(value, end_offset)``.  They carry
# _decode_one's checks and messages for the type they read; any other
# well-formed tag there is a :class:`SchemaError` — the bytes may still
# be CTLV, they are just not what the caller's schema declares.  A
# reader that also matches map keys as constant byte strings in their
# one canonical order gets "keys strictly sorted, no duplicates" by
# construction, and reads at most a fixed number of containers deep, so
# neither the sort check nor the nesting cap appears here.

#: Container tags for :func:`open_container`.
LIST = 76
MAP = 77

_TAG_NAMES = {
    78: "null", 84: "a boolean", 70: "a boolean", 73: "an integer",
    66: "a byte string", 83: "a string", LIST: "a list", MAP: "a map",
}

_unpack_header = _HDR.unpack_from
_int_from_bytes = int.from_bytes


def _unexpected(wanted: int, tag: int) -> SchemaError:
    found = _TAG_NAMES.get(tag, f"tag {bytes((tag,))!r}")
    return SchemaError(f"expected {_TAG_NAMES[wanted]}, found {found}")


def _no_header(wanted: int, offset: int, limit: int) -> Exception:
    """Why fewer than five bytes are left at *offset*.

    Part of a header is the codec's business; nothing at all is a
    container that ended before the value the caller declared — which
    the generic decoder, reading no schema, never notices.
    """
    if offset < limit:
        return EncodingError("truncated header")
    what = _TAG_NAMES.get(wanted, "a value")
    return SchemaError(f"expected {what}, found the end of the container")


def read_header(buf: bytes, offset: int, limit: int) -> tuple[int, int, int]:
    """``(tag, payload_start, payload_end)`` of the value at *offset*."""
    start = offset + 5
    if start > limit:
        raise _no_header(0, offset, limit)
    tag, length = _unpack_header(buf, offset)
    end = start + length
    if end > limit:
        raise EncodingError("truncated payload")
    return tag, start, end


def read_int(buf: bytes, offset: int, limit: int) -> tuple[int, int]:
    """The minimally encoded integer at *offset*."""
    start = offset + 5
    if start > limit:
        raise _no_header(73, offset, limit)
    tag, length = _unpack_header(buf, offset)
    end = start + length
    if end > limit:
        raise EncodingError("truncated payload")
    if tag != 73:
        raise _unexpected(73, tag)
    if length == 1:
        # Most integers in an object (address families, prefix lengths,
        # small serials) are this case.  Every single byte is minimal
        # except 0x80: the encoder gives -128 a spare sign byte.
        value = buf[start]
        if value < 128:
            return value, end
        if value == 128:
            raise EncodingError("non-minimal integer encoding")
        return value - 256, end
    if not length:
        raise EncodingError("empty integer payload")
    value = _int_from_bytes(buf[start:end], "big", signed=True)
    if (value.bit_length() + 8) >> 3 != length:
        raise EncodingError("non-minimal integer encoding")
    return value, end


def read_str(buf: bytes, offset: int, limit: int) -> tuple[str, int]:
    """The UTF-8 string at *offset*."""
    start = offset + 5
    if start > limit:
        raise _no_header(83, offset, limit)
    tag, length = _unpack_header(buf, offset)
    end = start + length
    if end > limit:
        raise EncodingError("truncated payload")
    if tag != 83:
        raise _unexpected(83, tag)
    try:
        return str(buf[start:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise EncodingError("invalid UTF-8 in string") from exc


def read_bytes(buf: bytes, offset: int, limit: int) -> tuple[bytes, int]:
    """The byte string at *offset*."""
    start = offset + 5
    if start > limit:
        raise _no_header(66, offset, limit)
    tag, length = _unpack_header(buf, offset)
    end = start + length
    if end > limit:
        raise EncodingError("truncated payload")
    if tag != 66:
        raise _unexpected(66, tag)
    return buf[start:end], end


def open_container(
    buf: bytes, offset: int, limit: int, tag: int
) -> tuple[int, int]:
    """``(body_start, body_end)`` of the :data:`LIST` or :data:`MAP` at
    *offset*; the caller reads the children against ``body_end``."""
    start = offset + 5
    if start > limit:
        raise _no_header(tag, offset, limit)
    found, length = _unpack_header(buf, offset)
    end = start + length
    if end > limit:
        raise EncodingError("truncated payload")
    if found != tag:
        raise _unexpected(tag, found)
    return start, end


# -- typed leaf writers -------------------------------------------------------
#
# The inverse of the readers above: each returns exactly the bytes
# :func:`encode` gives one value of the declared type, so an object built
# from them is byte-identical to one encoded from its payload dictionary.
# A map body is written by the caller in canonical key order (encoded key
# bytes ascending, which puts shorter keys first); nothing here sorts.

_pack_header = _HDR.pack


def write_int(value: int) -> bytes:
    """The encoding of the integer *value* (minimal two's complement)."""
    width = (value.bit_length() + 8) >> 3
    return _pack_header(73, width) + value.to_bytes(width, "big", signed=True)


def write_str(value: str) -> bytes:
    """The encoding of the string *value* (UTF-8)."""
    payload = value.encode()
    return _pack_header(83, len(payload)) + payload


def write_bytes(value: bytes) -> bytes:
    """The encoding of the byte string *value*."""
    return _pack_header(66, len(value)) + value


def write_container(tag: int, body: bytes) -> bytes:
    """The :data:`LIST` or :data:`MAP` *tag* around an encoded *body*.

    *body* is the container's items (or key/value pairs), each already
    encoded, concatenated.
    """
    return _pack_header(tag, len(body)) + body
