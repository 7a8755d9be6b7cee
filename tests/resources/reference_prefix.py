"""The prefix parser before the regex-free IPv4 path — kept as an oracle.

``parse_ipv4``, ``parse_address`` and ``Prefix.parse`` (here the function
``parse_prefix``) as they read before IPv4 text was parsed without the
regex: verbatim, except that ``parse_address`` dispatches to this
module's ``parse_ipv4``.  IPv4 went through ``\\d{1,3}`` and ``int()``,
the length through ``int()``, so any spelling ``int()`` accepts — a
sign, ``_``, whitespace, another script's digits — was a prefix.
``test_prefix_differential.py`` holds the shipped parser to this one
everywhere except those spellings.  Not used by ``src/``.
"""

from __future__ import annotations

import re

from repro.resources import AddressParseError, Afi, Prefix
from repro.resources.errors import PrefixParseError, PrefixValueError
from repro.resources.ipaddr import parse_ipv6

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
