"""The resource-set algebra before one interval implementation — an oracle.

``ResourceSet`` and ``AsnSet`` as they read when ``ranges.py`` and
``asn.py`` each carried their own copy: normalize by sorting and merging,
``covers`` and ``overlaps`` as every range against every range,
``subtract`` as every hole against every remaining piece, ``intersect``
as every pair.  ``AsnSet`` had no ``overlaps`` or ``intersect``; the two
here are the address set's loops over AS ranges.  The range value types
are the shipped ones, read only through ``afi`` / ``start`` / ``end`` and
their constructors, so the relations below are this module's own.
``test_properties.py`` holds the shipped sets to these on every draw.
Not used by ``src/``.
"""

from __future__ import annotations

from repro.resources import ASN, AddressRange, AsnRange, Prefix


def _family(r) -> int:
    return r.afi.value if isinstance(r, AddressRange) else 0


def _key(r) -> tuple[int, int, int]:
    return _family(r), r.start, r.end


def _covers(a, b) -> bool:
    return _family(a) == _family(b) and a.start <= b.start and b.end <= a.end


def _overlaps(a, b) -> bool:
    return _family(a) == _family(b) and a.start <= b.end and b.start <= a.end


def _build(like, start: int, end: int):
    if isinstance(like, AddressRange):
        return AddressRange(like.afi, start, end)
    return AsnRange(start, end)


def _normalize(ranges) -> tuple:
    """Sort, merge overlaps and adjacency."""
    merged: list = []
    for range_ in sorted(ranges, key=_key):
        if merged:
            last = merged[-1]
            if _family(last) == _family(range_) and range_.start <= last.end + 1:
                if range_.end > last.end:
                    merged[-1] = _build(last, last.start, range_.end)
                continue
        merged.append(range_)
    return tuple(merged)


def _range_subtract(piece, hole) -> list:
    """Subtract one range from another, returning 0, 1 or 2 remainders."""
    if not _overlaps(piece, hole):
        return [piece]
    out = []
    if piece.start < hole.start:
        out.append(_build(piece, piece.start, hole.start - 1))
    if hole.end < piece.end:
        out.append(_build(piece, hole.end + 1, piece.end))
    return out


class _ReferenceSet:
    def __init__(self, ranges=()):
        self._ranges = _normalize(ranges)

    @property
    def ranges(self) -> tuple:
        return self._ranges

    def _coerce(self, other):
        raise NotImplementedError

    def covers(self, other) -> bool:
        other = self._coerce(other)
        return all(
            any(_covers(mine, r) for mine in self._ranges)
            for r in other._ranges
        )

    def overlaps(self, other) -> bool:
        other = self._coerce(other)
        return any(
            _overlaps(mine, r) for r in other._ranges for mine in self._ranges
        )

    def union(self, other):
        return type(self)(self._ranges + other._ranges)

    def subtract(self, other):
        other = self._coerce(other)
        remaining = list(self._ranges)
        for hole in other._ranges:
            next_remaining = []
            for piece in remaining:
                next_remaining.extend(_range_subtract(piece, hole))
            remaining = next_remaining
        return type(self)(remaining)

    def intersect(self, other):
        out = []
        for a in self._ranges:
            for b in other._ranges:
                if _overlaps(a, b):
                    out.append(_build(a, max(a.start, b.start), min(a.end, b.end)))
        return type(self)(out)

    def __str__(self) -> str:
        if not self._ranges:
            return "{}"
        return "{" + ", ".join(str(r) for r in self._ranges) + "}"


class ResourceSet(_ReferenceSet):
    def _coerce(self, other):
        if isinstance(other, Prefix):
            other = AddressRange.from_prefix(other)
        if isinstance(other, AddressRange):
            return ResourceSet([other])
        return other

    def __repr__(self) -> str:
        return f"ResourceSet({', '.join(repr(str(r)) for r in self._ranges)})"


class AsnSet(_ReferenceSet):
    def _coerce(self, other):
        if isinstance(other, (ASN, int)):
            other = AsnRange.single(other)
        if isinstance(other, AsnRange):
            return AsnSet([other])
        return other

    def __repr__(self) -> str:
        return f"AsnSet({list(self._ranges)!r})"
