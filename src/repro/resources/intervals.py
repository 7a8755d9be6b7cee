"""The interval-set algebra behind every RFC 3779 resource set.

A resource extension is a set of integers of one or more *families* —
IPv4 and IPv6 addresses (:class:`~repro.resources.ranges.ResourceSet`),
AS numbers (:class:`~repro.resources.asn.AsnSet`) — held as a sorted
tuple of disjoint, non-adjacent inclusive ranges.  A family is an enum
member whose plain ``rank`` attribute orders it (an enum's ``value`` is
a descriptor, several times slower to read on every key and bisection
step); ranges of different families never cover, overlap or merge.
This is the one implementation of the algebra.

Costs, for a set of n ranges and an argument of m: building a set sorts
once, O(m log m), an already sorted input costs O(m), and no range or
one range costs no sort at all (a certificate's resources are usually
one range, an EE certificate's AS numbers none); a single range
argument (a prefix, a range, one AS number) is one bisection, O(log n).
``covers`` of a set is one bisection per range of the argument,
O(m log n), so a one-range argument stays O(log n) however many ranges
the holder signs; ``overlaps`` of a set bisects each range of the smaller
set into the larger.  ``subtract`` and ``union`` are one
linear merge of the two sorted tuples, O(n + m).  An authority chooses
how many ranges it signs, so nothing here compares every range with
every range.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from operator import attrgetter
from typing import Iterable, Iterator

__all__ = ["Interval", "IntervalSet"]


@functools.total_ordering
class Interval:
    """An immutable, inclusive range ``[start, end]`` of one family.

    Subclasses hold ``_afi`` (the family), ``_start`` and ``_end``, and
    supply the one per-type hook: ``_with(start, end)``, a range of the
    same family with those bounds.
    """

    __slots__ = ()

    @property
    def start(self) -> int:
        return self._start

    @property
    def end(self) -> int:
        return self._end

    @property
    def size(self) -> int:
        """How many integers the range holds."""
        return self._end - self._start + 1

    def covers(self, other: "Interval") -> bool:
        """True if *other* lies entirely inside this range."""
        return (
            self._afi is other._afi
            and self._start <= other._start
            and other._end <= self._end
        )

    def overlaps(self, other: "Interval") -> bool:
        """True if the ranges share at least one integer."""
        return (
            self._afi is other._afi
            and self._start <= other._end
            and other._start <= self._end
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self._afi is other._afi
            and self._start == other._start
            and self._end == other._end
        )

    def __lt__(self, other: "Interval") -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self._afi.rank, self._start, self._end) < (
            other._afi.rank,
            other._start,
            other._end,
        )

    def __hash__(self) -> int:
        return hash((self._afi, self._start, self._end))


#: A range's sort key, ``(family rank, start)``: read in C, as every
#: set build sorts by it and every bisection calls it per step.
_start_of = attrgetter("_afi.rank", "_start")


class IntervalSet:
    """An immutable, normalized set of :class:`Interval` values.

    Subclasses spell themselves (``__repr__``), name what ``in`` accepts
    (``_MEMBERS``) and which single values stand in for a set:
    ``_interval_of(item)`` is *item* as one range, or None for a set.
    """

    __slots__ = ("_ranges",)

    _MEMBERS: tuple[type, ...] = ()

    def __init__(self, ranges: Iterable[Interval] = ()):
        ranges = tuple(ranges)
        if len(ranges) > 1:
            ranges = _merged(sorted(ranges, key=_start_of))
        self._ranges: tuple[Interval, ...] = ranges

    def _ranges_of(self, other) -> tuple[Interval, ...]:
        single = self._interval_of(other)
        return other._ranges if single is None else (single,)

    @classmethod
    def empty(cls):
        return cls()

    # -- accessors ---------------------------------------------------------

    @property
    def ranges(self) -> tuple[Interval, ...]:
        """The normalized ranges, sorted by family then start."""
        return self._ranges

    @property
    def size(self) -> int:
        """Total number of integers across all ranges."""
        return sum(r.size for r in self._ranges)

    def is_empty(self) -> bool:
        return not self._ranges

    # -- relations ------------------------------------------------------------

    def covers(self, other) -> bool:
        """True if every integer of *other* is in this set.

        An empty set is covered by anything (vacuous truth), matching the
        RFC 3779 subset requirement for certificates with empty deltas.
        """
        single = self._interval_of(other)
        covers_span = self.covers_span
        if single is not None:
            return covers_span(single._afi, single._start, single._end)
        for r in other._ranges:
            if not covers_span(r._afi, r._start, r._end):
                return False
        return True

    def covers_span(self, afi, start: int, end: int) -> bool:
        """``covers`` of the range ``[start, end]`` of family *afi*,
        without building it."""
        # Sorted and disjoint: only the last range that starts at or
        # before the span can hold it.  (A scan here made one ROA over
        # n scattered prefixes cost n**2 to judge.)
        ranges = self._ranges
        at = bisect_right(ranges, (afi.rank, start), key=_start_of)
        if not at:
            return False
        holder = ranges[at - 1]
        return holder._afi is afi and holder._start <= start \
            and end <= holder._end

    def overlaps(self, other) -> bool:
        """True if the two sets share at least one integer."""
        single = self._interval_of(other)
        if single is not None:
            return self._overlaps_span(single)
        # Each range of the smaller set is one bisection into the larger.
        small, large = sorted((self, other), key=len)
        return any(large._overlaps_span(r) for r in small._ranges)

    def _overlaps_span(self, span: Interval) -> bool:
        # The last range starting at or before the span's end is the one
        # that reaches furthest into it.
        ranges = self._ranges
        at = bisect_right(ranges, (span._afi.rank, span._end), key=_start_of)
        return bool(at) and ranges[at - 1].overlaps(span)

    # -- algebra ------------------------------------------------------------

    def union(self, other):
        """Set union (the sort merges two sorted runs)."""
        return type(self)(self._ranges + other._ranges)

    def subtract(self, other):
        """Remove *other*'s integers — the hole-punching primitive."""
        holes = self._ranges_of(other)
        out: list[Interval] = []
        j = 0
        for piece in self._ranges:
            while j < len(holes) and _ends_before(holes[j], piece):
                j += 1
            cursor, punched = piece._start, False
            while j < len(holes) and holes[j].overlaps(piece):
                hole = holes[j]
                if cursor < hole._start:
                    out.append(piece._with(cursor, hole._start - 1))
                cursor, punched = hole._end + 1, True
                if hole._end >= piece._end:
                    break  # the hole may reach into the next piece too
                j += 1
            if not punched:
                out.append(piece)
            elif cursor <= piece._end:
                out.append(piece._with(cursor, piece._end))
        return type(self)(out)

    # -- dunder -------------------------------------------------------------

    def __contains__(self, item: object) -> bool:
        return isinstance(item, self._MEMBERS) and self.covers(item)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._ranges)

    def __len__(self) -> int:
        return len(self._ranges)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._ranges == other._ranges

    def __hash__(self) -> int:
        return hash(self._ranges)

    def __str__(self) -> str:
        if not self._ranges:
            return "{}"
        return "{" + ", ".join(str(r) for r in self._ranges) + "}"


def _ends_before(a: Interval, b: Interval) -> bool:
    """True if all of *a* lies below *b*'s start (by family, then value)."""
    if a._afi is b._afi:
        return a._end < b._start
    return a._afi.rank < b._afi.rank


def _merged(ordered: Iterable[Interval]) -> tuple[Interval, ...]:
    """Ranges sorted by start, with overlapping and adjacent ones merged:
    the :class:`IntervalSet` invariant."""
    out: list[Interval] = []
    for range_ in ordered:
        if out:
            last = out[-1]
            if last._afi is range_._afi and range_._start <= last._end + 1:
                if range_._end > last._end:
                    out[-1] = last._with(last._start, range_._end)
                continue
        out.append(range_)
    return tuple(out)
