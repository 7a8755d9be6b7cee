"""Address ranges and RFC 3779-style resource sets.

RPKI resource certificates bind *arbitrary sets of IP addresses* to a key —
not just single prefixes (paper, Section 3.1, "fine-grained resource
allocation").  The targeted-whacking attack depends on exactly this: Sprint
shrinks Continental Broadband's certificate to the two ranges
``63.174.16.0–63.174.23.255`` and ``63.174.25.0–63.174.31.255``, punching a
hole around the target ROA.  :class:`ResourceSet` is the algebra that makes
such hole-punching a one-line operation (:meth:`ResourceSet.subtract`).

Ranges are stored normalized: sorted, non-overlapping, non-adjacent.  All
set operations preserve that invariant, which the property-based tests pin
down.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from typing import Iterable, Iterator, Sequence

from .errors import AfiMismatchError, RangeValueError
from .ipaddr import Afi, format_address, parse_address
from .prefix import Prefix

__all__ = ["AddressRange", "ResourceSet"]


@functools.total_ordering
class AddressRange:
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

    @property
    def start(self) -> int:
        return self._start

    @property
    def end(self) -> int:
        return self._end

    @property
    def size(self) -> int:
        """Number of addresses in the range."""
        return self._end - self._start + 1

    # -- relations -----------------------------------------------------------

    def covers(self, other: "AddressRange") -> bool:
        """True if *other* lies entirely inside this range."""
        return (
            self._afi is other._afi
            and self._start <= other._start
            and other._end <= self._end
        )

    def covers_prefix(self, prefix: Prefix) -> bool:
        """True if the whole *prefix* lies inside this range."""
        return self.covers(AddressRange.from_prefix(prefix))

    def contains_address(self, address: int) -> bool:
        """True if the integer *address* lies inside this range."""
        return self._start <= address <= self._end

    def overlaps(self, other: "AddressRange") -> bool:
        """True if the ranges share at least one address."""
        return (
            self._afi is other._afi
            and self._start <= other._end
            and other._start <= self._end
        )

    def adjacent_to(self, other: "AddressRange") -> bool:
        """True if the ranges touch end-to-start with no gap."""
        if self._afi is not other._afi:
            return False
        return self._end + 1 == other._start or other._end + 1 == self._start

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AddressRange):
            return NotImplemented
        return (
            self._afi is other._afi
            and self._start == other._start
            and self._end == other._end
        )

    def __lt__(self, other: "AddressRange") -> bool:
        if not isinstance(other, AddressRange):
            return NotImplemented
        return (self._afi.value, self._start, self._end) < (
            other._afi.value,
            other._start,
            other._end,
        )

    def __hash__(self) -> int:
        return hash((self._afi, self._start, self._end))

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


def _start_of(r: AddressRange) -> tuple[int, int]:
    return r._afi.value, r._start


class ResourceSet:
    """An immutable, normalized set of IP addresses (both families allowed).

    This is the value type of an RPKI certificate's resource extension.
    All the paper's manipulations reduce to algebra on these sets:

    - issuing a child RC requires the child set to be *covered* by the
      parent set (principle of least privilege);
    - targeted whacking subtracts the target ROA's prefix from a child RC
      (:meth:`subtract`) and checks the remainder still covers every other
      descendant object (:meth:`covers`).

    The internal representation is a sorted tuple of disjoint,
    non-adjacent :class:`AddressRange` values per family.
    """

    __slots__ = ("_ranges",)

    def __init__(self, ranges: Iterable[AddressRange] = ()):
        self._ranges: tuple[AddressRange, ...] = _normalize(ranges)

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

    @classmethod
    def universe(cls, afi: Afi) -> "ResourceSet":
        """The set of every address of one family (what IANA holds)."""
        return cls([AddressRange(afi, 0, afi.max_address)])

    @classmethod
    def empty(cls) -> "ResourceSet":
        return cls()

    # -- accessors ---------------------------------------------------------

    @property
    def ranges(self) -> tuple[AddressRange, ...]:
        """The normalized ranges, sorted by family then address."""
        return self._ranges

    @property
    def size(self) -> int:
        """Total number of addresses across all ranges."""
        return sum(r.size for r in self._ranges)

    def is_empty(self) -> bool:
        return not self._ranges

    def prefixes(self) -> Iterator[Prefix]:
        """Minimal CIDR decomposition of the whole set, in order."""
        for range_ in self._ranges:
            yield from range_.to_prefixes()

    # -- relations ------------------------------------------------------------

    def covers(self, other: "ResourceSet | AddressRange | Prefix") -> bool:
        """True if every address of *other* is in this set.

        An empty set is covered by anything (vacuous truth), matching the
        RFC 3779 subset requirement for certificates with empty deltas.
        """
        if isinstance(other, Prefix):
            other = AddressRange.from_prefix(other)
        if isinstance(other, AddressRange):
            return self.covers_span(other._afi, other._start, other._end)
        return all(self.covers(r) for r in other._ranges)

    def covers_span(self, afi: Afi, start: int, end: int) -> bool:
        """``covers(AddressRange(afi, start, end))`` for a valid range,
        without building it."""
        # Sorted and disjoint: only the last range that starts at or
        # before the span can hold it.  (A scan here made one ROA over
        # n scattered prefixes cost n**2 to judge.)
        ranges = self._ranges
        at = bisect_right(ranges, (afi.value, start), key=_start_of)
        if not at:
            return False
        holder = ranges[at - 1]
        return holder._afi is afi and holder._start <= start \
            and end <= holder._end

    def covers_address(self, afi: Afi, address: int) -> bool:
        """True if one integer address is in the set."""
        return any(
            r.afi is afi and r.contains_address(address) for r in self._ranges
        )

    def overlaps(self, other: "ResourceSet | AddressRange | Prefix") -> bool:
        """True if the two sets share at least one address."""
        if isinstance(other, Prefix):
            other = AddressRange.from_prefix(other)
        if isinstance(other, AddressRange):
            return any(mine.overlaps(other) for mine in self._ranges)
        return any(self.overlaps(r) for r in other._ranges)

    # -- algebra ------------------------------------------------------------

    def union(self, other: "ResourceSet") -> "ResourceSet":
        """Set union (normalizing merges adjacency automatically)."""
        return ResourceSet(self._ranges + other._ranges)

    def subtract(self, other: "ResourceSet | AddressRange | Prefix") -> "ResourceSet":
        """Remove *other*'s addresses — the hole-punching primitive.

        ``sprint_rc.resources.subtract(target_roa.prefix)`` is precisely the
        Figure 3 manipulation.
        """
        if isinstance(other, Prefix):
            other = ResourceSet([AddressRange.from_prefix(other)])
        elif isinstance(other, AddressRange):
            other = ResourceSet([other])
        remaining = list(self._ranges)
        for hole in other._ranges:
            next_remaining: list[AddressRange] = []
            for piece in remaining:
                next_remaining.extend(_range_subtract(piece, hole))
            remaining = next_remaining
        return ResourceSet(remaining)

    def intersect(self, other: "ResourceSet") -> "ResourceSet":
        """Set intersection."""
        out: list[AddressRange] = []
        for a in self._ranges:
            for b in other._ranges:
                if a.overlaps(b):
                    out.append(
                        AddressRange(a.afi, max(a.start, b.start), min(a.end, b.end))
                    )
        return ResourceSet(out)

    # -- dunder -------------------------------------------------------------

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Prefix):
            return self.covers(item)
        if isinstance(item, AddressRange):
            return self.covers(item)
        return False

    def __iter__(self) -> Iterator[AddressRange]:
        return iter(self._ranges)

    def __len__(self) -> int:
        return len(self._ranges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceSet):
            return NotImplemented
        return self._ranges == other._ranges

    def __hash__(self) -> int:
        return hash(self._ranges)

    def __str__(self) -> str:
        if not self._ranges:
            return "{}"
        return "{" + ", ".join(str(r) for r in self._ranges) + "}"

    def __repr__(self) -> str:
        return f"ResourceSet({', '.join(repr(str(r)) for r in self._ranges)})"


def _normalize(ranges: Iterable[AddressRange]) -> tuple[AddressRange, ...]:
    """Sort, merge overlaps and adjacency; the ResourceSet invariant."""
    ordered: Sequence[AddressRange] = sorted(ranges)
    merged: list[AddressRange] = []
    for range_ in ordered:
        if merged:
            last = merged[-1]
            if last.afi is range_.afi and range_.start <= last.end + 1:
                if range_.end > last.end:
                    merged[-1] = AddressRange(last.afi, last.start, range_.end)
                continue
        merged.append(range_)
    return tuple(merged)


def _range_subtract(piece: AddressRange, hole: AddressRange) -> list[AddressRange]:
    """Subtract one range from another, returning 0, 1 or 2 remainders."""
    if not piece.overlaps(hole):
        return [piece]
    out: list[AddressRange] = []
    if piece.start < hole.start:
        out.append(AddressRange(piece.afi, piece.start, hole.start - 1))
    if hole.end < piece.end:
        out.append(AddressRange(piece.afi, hole.end + 1, piece.end))
    return out
