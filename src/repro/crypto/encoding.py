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

Lengths are 4-byte big-endian.  A map's keys are strictly sorted by
their encoded bytes (so no duplicates) and are never containers, and a
value is followed by nothing — each a classic source of PKI
malleability bugs.

The codec is its typed leaf readers and writers, one value of a
*declared* type at a time:

- The readers (:func:`read_header`, :func:`read_int`, :func:`read_str`,
  :func:`read_bytes`, :func:`open_container`) read one value at an
  offset, against the end of the enclosing container.  The per-type
  object readers of :mod:`repro.rpki` are written in them, so a refresh
  goes from wire bytes to typed objects without building a generic tree.
- The writers (:func:`write_int`, :func:`write_str`, :func:`write_bytes`,
  :func:`write_container`) are their inverse.  An authority builds its
  objects through them, and :func:`repro.crypto.keys.write_public_key`
  writes a key's wire form with them.
- :func:`decode` is a walk over the readers into plain Python values.
  It serves the reject path (what is wrong with bytes no schema
  describes) and inspection, never a refresh, so integer minimality,
  UTF-8 and truncation are checked in the readers alone.

Nesting is capped at :data:`MAX_NESTING` containers — a deterministic
:class:`EncodingError` instead of an interpreter ``RecursionError`` on
decoder-bomb inputs (see :func:`repro.repository.faults.nested_bomb`).

The original recursive codec, encoder included, is kept as
``tests/crypto/reference_codec.py``: the oracle the differential suite
pins :func:`decode` and the writers to, and the encoder tests and tools
use to build arbitrary trees.
"""

from __future__ import annotations

import struct
from typing import Any

from .errors import EncodingError, SchemaError

__all__ = [
    "decode", "MAX_NESTING",
    "read_header", "read_int", "read_str", "read_bytes", "open_container",
    "write_int", "write_str", "write_bytes", "write_container",
    "LIST", "MAP",
]

_HDR = struct.Struct(">BI")  # tag byte + 4-byte length, packed in one call

#: Maximum container nesting depth :func:`decode` accepts.  Real objects
#: nest a handful of levels; the cap turns a decoder-bomb payload into a
#: deterministic :class:`EncodingError` instead of a Python
#: ``RecursionError``.
MAX_NESTING = 64


# -- typed leaf readers -------------------------------------------------------
#
# What a schema-directed reader (repro.rpki's per-type object readers) is
# built from: each reads ONE value of a declared type at *offset*, no
# further than *limit* (the end of the enclosing container, never past
# ``len(buf)``), and returns ``(value, end_offset)``.  They hold the
# codec's checks and messages for the type they read; any other
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


# -- the generic walk ---------------------------------------------------------
#
# What reads bytes no schema describes: each value's own reader, chosen
# by its tag.  The nesting cap, the map-key rules and the empty payloads
# of null and the booleans are the only checks of its own.

_LEAF_READERS = {73: read_int, 83: read_str, 66: read_bytes}
_EMPTY_PAYLOADS = {78: None, 84: True, 70: False}


def decode(data: bytes) -> Any:
    """The one CTLV value *data* holds, as plain Python values.

    Raises :class:`EncodingError` for anything but exactly one canonical
    value.  Not on any refresh path: the reject path and inspection.
    """
    if type(data) is not bytes:
        data = bytes(data)
    total = len(data)
    value, end = _read_value(data, 0, total, MAX_NESTING)
    if end != total:
        raise EncodingError(f"{total - end} trailing bytes after value")
    return value


def _read_value(buf: bytes, offset: int, limit: int, depth: int
                ) -> tuple[Any, int]:
    """The value at *offset* and its end; *depth* more containers may
    open below it."""
    if offset == limit:  # no input at all, or a map key with no value
        raise EncodingError("truncated header")
    tag = buf[offset]
    reader = _LEAF_READERS.get(tag)
    if reader is not None:
        return reader(buf, offset, limit)
    tag, cursor, end = read_header(buf, offset, limit)
    if tag in _EMPTY_PAYLOADS:
        if cursor != end:
            raise EncodingError(
                f"tag {bytes((tag,))!r} must have empty payload")
        return _EMPTY_PAYLOADS[tag], end
    if tag != LIST and tag != MAP:
        raise EncodingError(f"unknown tag {bytes((tag,))!r}")
    if not depth:
        raise EncodingError(f"nesting deeper than {MAX_NESTING} containers")
    depth -= 1
    if tag == LIST:
        items = []
        while cursor < end:
            item, cursor = _read_value(buf, cursor, end, depth)
            items.append(item)
        return items, end
    pairs = {}
    previous = b""
    while cursor < end:
        key_at = cursor
        key, cursor = _read_value(buf, cursor, end, depth)
        key_bytes = buf[key_at:cursor]
        if key_bytes <= previous:
            raise EncodingError("map keys not strictly sorted")
        if type(key) is list or type(key) is dict:
            raise EncodingError("map key is a container")
        previous = key_bytes
        pairs[key], cursor = _read_value(buf, cursor, end, depth)
    return pairs, end


# -- typed leaf writers -------------------------------------------------------
#
# The inverse of the readers above: each returns the one canonical
# encoding of a value of the declared type.  A map body is written by the
# caller in canonical key order (encoded key bytes ascending, which puts
# shorter keys first); nothing here sorts.

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
