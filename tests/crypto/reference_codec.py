"""Reference CTLV codec: the original recursive implementation.

This is the first codec of :mod:`repro.crypto.encoding`, kept as the
differential-testing oracle: ``test_encoding_differential.py`` pins the
leaf writers byte-identical to its :func:`encode` and the generic walk,
:func:`repro.crypto.decode`, to its :func:`decode` on random value trees
and on every malformed-input rejection class.  ``src/`` has no encoder
of arbitrary trees, so the tests and tools that need one (forged
objects, the differential and property tests) use this one.  It is not
imported by ``src/``.

Two deliberate changes from the historical code:

- the explicit :data:`~repro.crypto.encoding.MAX_NESTING`
  container-depth cap.  The historical codec relied on the interpreter's
  recursion limit, which raised ``RecursionError`` at an interpreter-
  configurable depth; a deterministic :class:`EncodingError` at a fixed
  depth keeps the two decoders' rejection behavior comparable;
- a map key that is a list or a map is an :class:`EncodingError`, with
  the walk's message.  The historical decoder raised ``TypeError``
  (unhashable) from building the dictionary.

It materializes every container body twice on encode and copies a
slice per child on decode.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.crypto.encoding import MAX_NESTING
from repro.crypto.errors import EncodingError

__all__ = ["encode", "decode", "MAX_NESTING"]

_LEN = struct.Struct(">I")

Encodable = None | bool | int | bytes | str | list | tuple | dict


def encode(value: Any) -> bytes:
    """Canonically encode *value* (CTLV).  Deterministic by construction."""
    out = bytearray()
    _encode_into(value, out, MAX_NESTING)
    return bytes(out)


def _encode_into(value: Any, out: bytearray, depth: int) -> None:
    # bool must be tested before int (bool is a subclass of int).
    if value is None:
        out += b"N" + _LEN.pack(0)
    elif value is True:
        out += b"T" + _LEN.pack(0)
    elif value is False:
        out += b"F" + _LEN.pack(0)
    elif isinstance(value, int):
        payload = _encode_int(value)
        out += b"I" + _LEN.pack(len(payload)) + payload
    elif isinstance(value, bytes):
        out += b"B" + _LEN.pack(len(value)) + value
    elif isinstance(value, str):
        payload = value.encode("utf-8")
        out += b"S" + _LEN.pack(len(payload)) + payload
    elif isinstance(value, (list, tuple)):
        if depth == 0:
            raise EncodingError(f"nesting deeper than {MAX_NESTING} containers")
        body = bytearray()
        for item in value:
            _encode_into(item, body, depth - 1)
        out += b"L" + _LEN.pack(len(body)) + body
    elif isinstance(value, dict):
        if depth == 0:
            raise EncodingError(f"nesting deeper than {MAX_NESTING} containers")
        encoded_pairs = []
        for key, item in value.items():
            key_bytes = bytearray()
            _encode_into(key, key_bytes, depth - 1)
            item_bytes = bytearray()
            _encode_into(item, item_bytes, depth - 1)
            encoded_pairs.append((bytes(key_bytes), bytes(item_bytes)))
        encoded_pairs.sort(key=lambda pair: pair[0])
        body = bytearray()
        for key_bytes, item_bytes in encoded_pairs:
            body += key_bytes
            body += item_bytes
        out += b"M" + _LEN.pack(len(body)) + body
    else:
        raise EncodingError(f"cannot canonically encode {type(value).__name__}")


def _encode_int(value: int) -> bytes:
    """Minimal-length big-endian two's complement."""
    if value == 0:
        return b"\x00"
    length = (value.bit_length() + 8) // 8  # +8 keeps a sign bit
    return value.to_bytes(length, "big", signed=True)


def decode(data: bytes) -> Any:
    """Decode one CTLV value; rejects trailing bytes and duplicate map keys."""
    value, consumed = _decode_one(data, 0, MAX_NESTING)
    if consumed != len(data):
        raise EncodingError(f"{len(data) - consumed} trailing bytes after value")
    return value


def _decode_one(data: bytes, offset: int, depth: int) -> tuple[Any, int]:
    if offset + 5 > len(data):
        raise EncodingError("truncated header")
    tag = data[offset : offset + 1]
    (length,) = _LEN.unpack_from(data, offset + 1)
    start = offset + 5
    end = start + length
    if end > len(data):
        raise EncodingError("truncated payload")
    payload = data[start:end]

    if tag == b"N":
        _expect_empty(tag, payload)
        return None, end
    if tag == b"T":
        _expect_empty(tag, payload)
        return True, end
    if tag == b"F":
        _expect_empty(tag, payload)
        return False, end
    if tag == b"I":
        if not payload:
            raise EncodingError("empty integer payload")
        value = int.from_bytes(payload, "big", signed=True)
        if _encode_int(value) != payload:
            raise EncodingError("non-minimal integer encoding")
        return value, end
    if tag == b"B":
        return payload, end
    if tag == b"S":
        try:
            return payload.decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise EncodingError("invalid UTF-8 in string") from exc
    if tag == b"L":
        if depth == 0:
            raise EncodingError(f"nesting deeper than {MAX_NESTING} containers")
        items = []
        cursor = start
        while cursor < end:
            item, cursor = _decode_one(data[:end], cursor, depth - 1)
            items.append(item)
        return items, end
    if tag == b"M":
        if depth == 0:
            raise EncodingError(f"nesting deeper than {MAX_NESTING} containers")
        result: dict = {}
        previous_key_bytes: bytes | None = None
        cursor = start
        while cursor < end:
            key_start = cursor
            key, cursor = _decode_one(data[:end], cursor, depth - 1)
            key_bytes = data[key_start:cursor]
            if previous_key_bytes is not None and key_bytes <= previous_key_bytes:
                raise EncodingError("map keys not strictly sorted")
            if isinstance(key, (list, dict)):
                raise EncodingError("map key is a container")
            previous_key_bytes = key_bytes
            value, cursor = _decode_one(data[:end], cursor, depth - 1)
            result[key] = value
        return result, end
    raise EncodingError(f"unknown tag {tag!r}")


def _expect_empty(tag: bytes, payload: bytes) -> None:
    if payload:
        raise EncodingError(f"tag {tag!r} must have empty payload")
