"""The prefix parser before the regex-free IPv4 path — kept as an oracle.

``parse_ipv4``, ``parse_address`` and ``Prefix.parse`` (here the function
``parse_prefix``) as they read before IPv4 text was parsed without the
regex, and ``parse_ipv6`` as it read before its hextets were held to
ASCII hex digits: verbatim, except that ``parse_address`` dispatches to
this module's two parsers and an embedded IPv4 tail goes through the
shipped ``parse_ipv4``, as it did.  IPv4 went through ``\\d{1,3}`` and
``int()``, the length through ``int()`` and each hextet through
``int(piece, 16)``, so any spelling ``int()`` accepts — a sign, ``_``,
whitespace, another script's digits — was a prefix.
``test_prefix_differential.py`` holds the shipped parser to this one
everywhere except those spellings.  Not used by ``src/``.
"""

from __future__ import annotations

import re

from repro.resources import AddressParseError, Afi, Prefix
from repro.resources.errors import PrefixParseError, PrefixValueError
from repro.resources.ipaddr import parse_ipv4 as shipped_parse_ipv4

_V4_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


def parse_ipv4(text: str) -> int:
    """Parse a dotted-quad IPv4 address into an integer.

    Raises :class:`AddressParseError` for anything that is not exactly four
    decimal octets in range.  Leading zeros are accepted (``010.0.0.1`` is
    octet 10), matching the behaviour of common router configuration parsers.
    """
    match = _V4_RE.match(text.strip())
    if match is None:
        raise AddressParseError(f"not an IPv4 address: {text!r}")
    value = 0
    for octet_text in match.groups():
        octet = int(octet_text)
        if octet > 255:
            raise AddressParseError(f"IPv4 octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def parse_ipv6(text: str) -> int:
    """Parse an IPv6 address (RFC 4291 text form) into an integer.

    Supports ``::`` compression and an embedded IPv4 tail
    (``::ffff:192.0.2.1``).  Zone identifiers are rejected; they have no
    meaning in routing announcements.
    """
    text = text.strip()
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
            v4 = shipped_parse_ipv4(piece)
            groups.append(v4 >> 16)
            groups.append(v4 & 0xFFFF)
            continue
        if not piece or len(piece) > 4:
            raise AddressParseError(f"bad hextet {piece!r} in {original!r}")
        try:
            groups.append(int(piece, 16))
        except ValueError as exc:
            raise AddressParseError(f"bad hextet {piece!r} in {original!r}") from exc
    return groups


def parse_address(text: str, afi: Afi | None = None) -> tuple[Afi, int]:
    """Parse an address of either family, returning ``(afi, value)``.

    If *afi* is given, only that family is attempted and a mismatching
    string raises :class:`AddressParseError`.
    """
    text = text.strip()
    looks_v6 = ":" in text
    if afi is Afi.IPV4 or (afi is None and not looks_v6):
        return Afi.IPV4, parse_ipv4(text)
    if afi is Afi.IPV6 or (afi is None and looks_v6):
        return Afi.IPV6, parse_ipv6(text)
    raise AddressParseError(f"cannot parse {text!r} as {afi}")


def parse_prefix(text: str) -> Prefix:
    """Parse ``"a.b.c.d/len"`` (or IPv6 equivalent) into a prefix."""
    cls = Prefix
    address_text, slash, length_text = text.strip().partition("/")
    if not slash:
        raise PrefixParseError(f"missing '/length' in {text!r}")
    try:
        afi, network = parse_address(address_text)
    except ValueError as exc:
        raise PrefixParseError(f"bad address in {text!r}: {exc}") from exc
    try:
        length = int(length_text)
    except ValueError as exc:
        raise PrefixParseError(f"bad length in {text!r}") from exc
    try:
        return cls(afi, network, length)
    except PrefixValueError as exc:
        raise PrefixParseError(str(exc)) from exc
