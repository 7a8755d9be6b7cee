"""Address ranges and RFC 3779-style resource sets.

RPKI resource certificates bind *arbitrary sets of IP addresses* to a key —
not just single prefixes (paper, Section 3.1, "fine-grained resource
allocation").  The targeted-whacking attack depends on exactly this: Sprint
shrinks Continental Broadband's certificate to the two ranges
``63.174.16.0–63.174.23.255`` and ``63.174.25.0–63.174.31.255``, punching a
hole around the target ROA.  :class:`ResourceSet` is the algebra that makes
such hole-punching a one-line operation (:meth:`ResourceSet.subtract`).

Both types are thin: the algebra is :mod:`repro.resources.intervals`,
shared with the AS-number sets.  Ranges are stored normalized (sorted,
non-overlapping, non-adjacent), which the property-based tests pin down;
a prefix or a single range is answered by one bisection, ``covers`` and
``overlaps`` of a set by one bisection per range, and ``subtract``
and ``union`` by one linear merge, O(n + m).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import AfiMismatchError, RangeValueError
from .intervals import Interval, IntervalSet
from .ipaddr import Afi, format_address, parse_address
from .prefix import Prefix

__all__ = ["AddressRange", "ResourceSet"]


class AddressRange(Interval):
    """An immutable, inclusive range of IP addresses of one family.

    ``AddressRange`` is the primitive unit of an RFC 3779 resource
    extension; a prefix is just the special case whose size is a power of
    two aligned on its own size.
    """

    __slots__ = ("_afi", "_start", "_end")

    def __init__(self, afi: Afi, start: int, end: int):
        if not 0 <= start <= end <= afi.max_address:
            raise RangeValueError(
                f"bad range [{start}, {end}] for {afi.name}"
            )
        self._afi = afi
        self._start = start
        self._end = end

    def _with(self, start: int, end: int) -> "AddressRange":
        return AddressRange(self._afi, start, end)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_prefix(cls, prefix: Prefix) -> "AddressRange":
        """The range spanning exactly one prefix."""
        return cls(prefix.afi, prefix.network, prefix.broadcast)

    @classmethod
    def parse(cls, text: str) -> "AddressRange":
        """Parse ``"start-end"`` or a bare prefix ``"net/len"``.

        Accepts the notation the paper uses in Figure 3:
        ``63.174.16.0-63.174.23.255``.
        """
        text = text.strip()
        if "-" in text:
            start_text, _, end_text = text.partition("-")
            start_afi, start = parse_address(start_text)
            end_afi, end = parse_address(end_text)
            if start_afi is not end_afi:
                raise AfiMismatchError(f"mixed families in {text!r}")
            return cls(start_afi, start, end)
        return cls.from_prefix(Prefix.parse(text))

    # -- accessors ----------------------------------------------------------

    @property
    def afi(self) -> Afi:
        return self._afi

    # -- decomposition ---------------------------------------------------------

    def to_prefixes(self) -> Iterator[Prefix]:
        """Decompose the range into the minimal list of prefixes, in order.

        Standard greedy CIDR decomposition: at each step emit the largest
        aligned prefix that fits in the remaining span.
        """
        bits = self._afi.bits
        cursor = self._start
        while cursor <= self._end:
            # Largest alignment of the cursor (how many trailing zero bits).
            if cursor == 0:
                align = bits
            else:
                align = (cursor & -cursor).bit_length() - 1
            # Largest block that still fits before self._end.
            span = self._end - cursor + 1
            fit = span.bit_length() - 1
            take = min(align, fit)
            yield Prefix(self._afi, cursor, bits - take)
            cursor += 1 << take

    def as_prefix(self) -> Prefix | None:
        """The single prefix equal to this range, or None if not aligned."""
        prefixes = list(self.to_prefixes())
        if len(prefixes) == 1:
            return prefixes[0]
        return None

    # -- dunder -------------------------------------------------------------

    def __str__(self) -> str:
        as_prefix = self.as_prefix()
        if as_prefix is not None:
            return str(as_prefix)
        return (
            f"{format_address(self._afi, self._start)}"
            f"-{format_address(self._afi, self._end)}"
        )

    def __repr__(self) -> str:
        return f"AddressRange({str(self)!r})"


class ResourceSet(IntervalSet):
    """An immutable, normalized set of IP addresses (both families allowed).

    This is the value type of an RPKI certificate's resource extension.
    All the paper's manipulations reduce to algebra on these sets:

    - issuing a child RC requires the child set to be *covered* by the
      parent set (principle of least privilege);
    - targeted whacking subtracts the target ROA's prefix from a child RC
      (:meth:`subtract`) and checks the remainder still covers every other
      descendant object (:meth:`covers`).

    ``covers``, ``overlaps``, ``subtract`` and ``union``
    take another set, an :class:`AddressRange` or a :class:`Prefix`:
    ``sprint_rc.resources.subtract(target_roa.prefix)`` is precisely the
    Figure 3 manipulation.  The internal representation is a sorted
    tuple of disjoint, non-adjacent :class:`AddressRange` values, IPv4
    before IPv6.
    """

    __slots__ = ()

    _MEMBERS = (Prefix, AddressRange)

    @staticmethod
    def _interval_of(item: object) -> AddressRange | None:
        if isinstance(item, Prefix):
            return AddressRange.from_prefix(item)
        return item if isinstance(item, AddressRange) else None

    # -- constructors ----------------------------------------------------

    @classmethod
    def parse(cls, *texts: str) -> "ResourceSet":
        """Build a set from prefix and/or range strings.

        >>> ResourceSet.parse("63.174.16.0-63.174.23.255", "63.174.25.0/24")
        """
        return cls(AddressRange.parse(t) for t in texts)

    @classmethod
    def from_prefixes(cls, prefixes: Iterable[Prefix]) -> "ResourceSet":
        return cls(AddressRange.from_prefix(p) for p in prefixes)

    # -- accessors ---------------------------------------------------------

    def prefixes(self) -> Iterator[Prefix]:
        """Minimal CIDR decomposition of the whole set, in order."""
        for range_ in self._ranges:
            yield from range_.to_prefixes()

    def __repr__(self) -> str:
        return f"ResourceSet({', '.join(repr(str(r)) for r in self._ranges)})"
