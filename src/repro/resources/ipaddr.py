"""Low-level IP address arithmetic for IPv4 and IPv6.

Addresses are represented as plain integers tagged with an address family
(:class:`Afi`).  Keeping the representation primitive makes the higher layers
(prefixes, ranges, resource sets, prefix maps) fast and trivially hashable, which
matters because relying-party validation repeatedly compares thousands of
resource sets.

This module is self-contained on purpose: the reproduction implements its own
substrate rather than leaning on :mod:`ipaddress`, so that the whole pipeline
from address parsing to route validity is auditable in one codebase.
"""

from __future__ import annotations

import enum

from .errors import AddressParseError

__all__ = [
    "Afi",
    "parse_address",
    "format_address",
    "parse_ipv4",
    "parse_ipv6",
    "format_ipv4",
    "format_ipv6",
]


class Afi(enum.Enum):
    """Address family identifier.

    The ``value`` matches the IANA AFI codepoints used in RFC 3779 resource
    extensions (1 = IPv4, 2 = IPv6), so serialized objects carry the real
    on-the-wire identifiers.

    ``bits`` (32 or 128), ``max_address`` (the highest representable
    address as an integer) and ``rank`` (the ``value``, which orders the
    families in a resource set) are plain attributes set once per
    member: every ``Prefix`` built, every prefix-map edit and every
    resource-set sort or bisection reads them.
    """

    IPV4 = 1
    IPV6 = 2

    bits: int
    max_address: int
    rank: int

    def __init__(self, code: int):
        self.bits = 32 if code == 1 else 128
        self.max_address = (1 << self.bits) - 1
        self.rank = code

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Afi.{self.name}"


def parse_ipv4(text: str) -> int:
    """Parse a dotted-quad IPv4 address into an integer.

    Raises :class:`AddressParseError` for anything that is not exactly four
    ASCII decimal octets in range.  Leading zeros are accepted (``010.0.0.1``
    is octet 10), matching the behaviour of common router configuration
    parsers.
    """
    return ipv4_value(text.strip())


def ipv4_value(text: str) -> int:
    """:func:`parse_ipv4` of text that is the dotted quad and nothing else."""
    try:
        a, b, c, d = text.split(".")
        # Unrolled: a loop over the octets costs more than the rest.
        if not (text.isascii() and a.isdigit() and b.isdigit()
                and c.isdigit() and d.isdigit() and len(a) < 4
                and len(b) < 4 and len(c) < 4 and len(d) < 4):
            raise ValueError(text)
    except ValueError:
        raise AddressParseError(f"not an IPv4 address: {text!r}") from None
    a, b, c, d = int(a), int(b), int(c), int(d)
    if a > 255 or b > 255 or c > 255 or d > 255:
        raise AddressParseError(f"IPv4 octet out of range in {text!r}")
    return a << 24 | b << 16 | c << 8 | d


def format_ipv4(value: int) -> str:
    """Format an integer as a dotted-quad IPv4 address."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise AddressParseError(f"IPv4 address out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def parse_ipv6(text: str) -> int:
    """Parse an IPv6 address (RFC 4291 text form) into an integer.

    Supports ``::`` compression and an embedded IPv4 tail
    (``::ffff:192.0.2.1``).  A hextet is one to four ASCII hex digits:
    no sign, ``_``, whitespace or another script's digits, all of which
    ``int(piece, 16)`` would take.  Zone identifiers are rejected; they
    have no meaning in routing announcements.  Surrounding whitespace is
    ignored.
    """
    return ipv6_value(text.strip())


def ipv6_value(text: str) -> int:
    """:func:`parse_ipv6` of text that is the address and nothing else."""
    if "%" in text:
        raise AddressParseError(f"zone identifiers not supported: {text!r}")
    if text.count("::") > 1:
        raise AddressParseError(f"multiple '::' in {text!r}")

    head_text, sep, tail_text = text.partition("::")
    head = _parse_hextet_run(head_text, text)
    tail = _parse_hextet_run(tail_text, text) if sep else []

    if sep:
        missing = 8 - len(head) - len(tail)
        if missing < 1:
            raise AddressParseError(f"'::' expands to nothing in {text!r}")
        groups = head + [0] * missing + tail
    else:
        groups = head
    if len(groups) != 8:
        raise AddressParseError(f"wrong number of groups in {text!r}")

    value = 0
    for group in groups:
        value = (value << 16) | group
    return value


def _parse_hextet_run(run: str, original: str) -> list[int]:
    """Parse a colon-separated run of hextets, expanding an IPv4 tail."""
    if not run:
        return []
    groups: list[int] = []
    pieces = run.split(":")
    for index, piece in enumerate(pieces):
        if "." in piece:
            if index != len(pieces) - 1:
                raise AddressParseError(f"embedded IPv4 not last in {original!r}")
            v4 = ipv4_value(piece)
            groups.append(v4 >> 16)
            groups.append(v4 & 0xFFFF)
            continue
        # ASCII letters and digits only; int() then refuses g-z.
        if not (len(piece) < 5 and piece.isascii() and piece.isalnum()):
            raise AddressParseError(f"bad hextet {piece!r} in {original!r}")
        try:
            groups.append(int(piece, 16))
        except ValueError as exc:
            raise AddressParseError(f"bad hextet {piece!r} in {original!r}") from exc
    return groups


def format_ipv6(value: int) -> str:
    """Format an integer as canonical (RFC 5952) IPv6 text.

    The longest run of two or more zero groups is compressed with ``::``;
    hex digits are lowercase.
    """
    if not 0 <= value < (1 << 128):
        raise AddressParseError(f"IPv6 address out of range: {value}")
    groups = [(value >> (112 - 16 * i)) & 0xFFFF for i in range(8)]

    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for i, group in enumerate(groups):
        if group == 0:
            if run_start < 0:
                run_start, run_len = i, 0
            run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0

    if best_len < 2:
        return ":".join(f"{g:x}" for g in groups)
    head = ":".join(f"{g:x}" for g in groups[:best_start])
    tail = ":".join(f"{g:x}" for g in groups[best_start + best_len :])
    return f"{head}::{tail}"


def parse_address(text: str) -> tuple[Afi, int]:
    """Parse an address of either family, returning ``(afi, value)``.

    A colon makes it IPv6.  To insist on one family, call that family's
    parser (:func:`parse_ipv4`, :func:`parse_ipv6`).
    """
    text = text.strip()
    if ":" in text:
        return Afi.IPV6, parse_ipv6(text)
    return Afi.IPV4, parse_ipv4(text)


def format_address(afi: Afi, value: int) -> str:
    """Format an integer address of the given family as text."""
    if afi is Afi.IPV4:
        return format_ipv4(value)
    return format_ipv6(value)
