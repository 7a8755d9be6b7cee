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
  already canonical — which it almost always is, because the builders in
  :mod:`repro.rpki` construct payload dictionaries deterministically.
- :func:`decode` is a zero-copy decoder: one :class:`memoryview` over the
  input plus an offset cursor.  Container children decode against an
  explicit ``limit`` instead of a per-child ``data[:end]`` slice copy,
  which made the old decoder quadratic on manifest-sized lists.
- Integer minimality is checked arithmetically (the payload length must
  equal the canonical width for the decoded value) instead of re-encoding
  every integer and comparing bytes.

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

from .errors import EncodingError

__all__ = ["encode", "encode_parts", "decode", "toplevel_spans", "MAX_NESTING"]

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
    body only when iteration order was not already sorted (rare: payload
    builders construct their dictionaries deterministically).
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


def encode_parts(*encoded_items: bytes) -> bytes:
    """Encode a CTLV list whose items are *already* canonically encoded.

    The canonical-bytes fast path of :class:`repro.rpki.SignedObject`:
    an object's wire form is ``[payload, signature]``, and the payload's
    encoding is cached at issuance/parse time — so the wire form is a
    header plus concatenation, never a re-encode.
    """
    body_length = 0
    for item in encoded_items:
        body_length += len(item)
    return b"".join((b"L", _LEN.pack(body_length), *encoded_items))


def toplevel_spans(data: bytes) -> list[tuple[int, int]]:
    """Byte spans ``(start, end)`` of each item of a top-level CTLV list.

    Walks headers only — payloads are not validated (run :func:`decode`
    for that); the spans let a caller slice an item's exact canonical
    bytes out of the wire form without re-encoding it.
    """
    total = len(data)
    if total < 5 or data[0] != 76:  # b"L"
        raise EncodingError("not a CTLV list")
    (body_length,) = _LEN.unpack_from(data, 1)
    end = 5 + body_length
    if end != total:
        raise EncodingError("list length does not cover the input")
    spans: list[tuple[int, int]] = []
    cursor = 5
    while cursor < end:
        if cursor + 5 > end:
            raise EncodingError("truncated header")
        (length,) = _LEN.unpack_from(data, cursor + 1)
        item_end = cursor + 5 + length
        if item_end > end:
            raise EncodingError("truncated payload")
        spans.append((cursor, item_end))
        cursor = item_end
    return spans


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
