"""IP prefixes with the covering semantics the paper relies on.

A prefix ``P`` *covers* a prefix ``pi`` if ``pi`` is a subset of the address
space of ``P`` or equal to it (paper, footnote 1).  Covering is the single
relation that drives both ROA matching (RFC 6811) and the paper's targeted
whacking attacks, so it lives here, close to the representation.
"""

from __future__ import annotations

import functools
import sys
from typing import Iterator

from .errors import PrefixParseError, PrefixValueError
from .ipaddr import Afi, format_address, ipv4_value, ipv6_value

__all__ = ["Prefix"]

# CPython hashes an int modulo ``sys.hash_info.modulus`` (2**61 - 1), and
# a tuple of ints by an unkeyed mix that can be run backwards, so whoever
# chooses a wide integer chooses its hash: the 4,000 IPv6 addresses
# ``base + i * (2**61 - 1)`` fit one /55 and all hash alike, and cutting
# them into limbs only moves the attack to a twenty-line inversion.
# Prefixes are chosen by the authorities under validation, so an integer
# too wide to hash as itself is hashed as bytes — the interpreter's
# keyed hash, its defence for strings a peer chooses.
INT_HASH_MODULUS = sys.hash_info.modulus


def hash_key(value: int) -> int | bytes:
    """Non-negative *value* (< 2**128) as a dictionary key with a hash
    its chooser cannot aim; distinct values give distinct keys."""
    return value if value < INT_HASH_MODULUS else value.to_bytes(16, "big")


@functools.total_ordering
class Prefix:
    """An immutable IP prefix (network address + length).

    Instances are hashable and totally ordered (by family, then network
    address, then length: a prefix sorts before what it covers), so they
    can be used directly as dictionary keys and in sorted containers.

    >>> p = Prefix.parse("63.160.0.0/12")
    >>> p.covers(Prefix.parse("63.168.93.0/24"))
    True
    """

    __slots__ = ("_afi", "_network", "_length", "_hash")

    def __init__(self, afi: Afi, network: int, length: int):
        bits = afi.bits
        if not 0 <= length <= bits:
            raise PrefixValueError(f"bad prefix length /{length} for {afi.name}")
        if not 0 <= network <= afi.max_address:
            raise PrefixValueError(f"network address out of range: {network}")
        if network & ((1 << (bits - length)) - 1):
            raise PrefixValueError(
                f"host bits set in {format_address(afi, network)}/{length}"
            )
        self._afi = afi
        self._network = network
        self._length = length
        self._hash = -1

    # -- constructors ----------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` (or IPv6 equivalent) into a prefix.

        Surrounding whitespace is ignored; the length, like an IPv4 octet,
        is ASCII decimal digits (leading zeros allowed), and an IPv6
        hextet is one to four ASCII hex digits.
        """
        address_text, slash, length_text = text.strip().partition("/")
        if not slash:
            raise PrefixParseError(f"missing '/length' in {text!r}")
        v6 = ":" in address_text
        try:
            network = ipv6_value(address_text) if v6 else ipv4_value(address_text)
        except ValueError as exc:
            raise PrefixParseError(f"bad address in {text!r}: {exc}") from exc
        try:
            if not (length_text.isascii() and length_text.isdigit()):
                raise ValueError(length_text)
            length = int(length_text)
        except ValueError as exc:
            raise PrefixParseError(f"bad length in {text!r}") from exc
        if not v6 and length <= 32 and not network & ((1 << (32 - length)) - 1):
            # ipv4_value checked every octet: nothing is left to check.
            prefix = object.__new__(cls)
            prefix._afi, prefix._network = Afi.IPV4, network
            prefix._length, prefix._hash = length, -1
            return prefix
        try:
            return cls(Afi.IPV6 if v6 else Afi.IPV4, network, length)
        except PrefixValueError as exc:
            raise PrefixParseError(str(exc)) from exc

    # -- accessors --------------------------------------------------------

    @property
    def afi(self) -> Afi:
        return self._afi

    @property
    def network(self) -> int:
        """The network (lowest) address as an integer."""
        return self._network

    @property
    def length(self) -> int:
        """The prefix length (number of fixed leading bits)."""
        return self._length

    @property
    def broadcast(self) -> int:
        """The highest address in the prefix as an integer."""
        return self._network | host_mask(self._afi, self._length)

    @property
    def size(self) -> int:
        """Number of addresses in the prefix."""
        return 1 << (self._afi.bits - self._length)

    # -- relations ---------------------------------------------------------

    def covers(self, other: "Prefix") -> bool:
        """True if *other* is a subset of (or equal to) this prefix.

        This is the paper's covering relation: ``63.160.0.0/12`` covers
        ``63.168.93.0/24`` and covers itself.  Prefixes of different
        families never cover each other.
        """
        if self._afi is not other._afi or other._length < self._length:
            return False
        return (other._network >> (self._afi.bits - self._length)) == (
            self._network >> (self._afi.bits - self._length)
        )

    def overlaps(self, other: "Prefix") -> bool:
        """True if the two prefixes share any address."""
        return self.covers(other) or other.covers(self)

    # -- navigation ---------------------------------------------------------

    def parent(self) -> "Prefix":
        """The enclosing prefix one bit shorter.

        Raises :class:`PrefixValueError` at /0 (no parent exists).
        """
        if self._length == 0:
            raise PrefixValueError("a /0 prefix has no parent")
        new_length = self._length - 1
        mask = ((1 << new_length) - 1) << (self._afi.bits - new_length) if new_length else 0
        return Prefix(self._afi, self._network & mask, new_length)

    def children(self) -> tuple["Prefix", "Prefix"]:
        """The two halves one bit longer (low half first)."""
        if self._length == self._afi.bits:
            raise PrefixValueError("a host prefix has no children")
        child_length = self._length + 1
        low = Prefix(self._afi, self._network, child_length)
        high = Prefix(
            self._afi,
            self._network | (1 << (self._afi.bits - child_length)),
            child_length,
        )
        return low, high

    def subprefixes(self, length: int) -> Iterator["Prefix"]:
        """Yield every subprefix of the given *length*, in address order.

        Used to build the route-validity matrices of Figure 5, which sweep
        63.160.0.0/12 and "all its subprefixes" down to /24.
        """
        if length < self._length:
            raise PrefixValueError(
                f"cannot enumerate /{length} inside a /{self._length}"
            )
        if length > self._afi.bits:
            raise PrefixValueError(f"bad target length /{length}")
        step = 1 << (self._afi.bits - length)
        for network in range(self._network, self.broadcast + 1, step):
            yield Prefix(self._afi, network, length)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (
            self._afi is other._afi
            and self._network == other._network
            and self._length == other._length
        )

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self._afi.value, self._network, self._length) < (
            other._afi.value,
            other._network,
            other._length,
        )

    def __hash__(self) -> int:
        # Cached: a prefix held as a dictionary key (a BGP table's) is
        # hashed again on every probe.
        if self._hash == -1:
            # The family as its width: an int hashes in C, an enum
            # member through a Python-level ``Enum.__hash__``.
            value = hash(
                (self._afi.bits, hash_key(self._network), self._length)
            )
            self._hash = value if value != -1 else -2
        return self._hash

    def __str__(self) -> str:
        return f"{format_address(self._afi, self._network)}/{self._length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"


def host_mask(afi: Afi, length: int) -> int:
    """The mask of host (non-network) bits for a prefix of *length*."""
    return (1 << (afi.bits - length)) - 1
