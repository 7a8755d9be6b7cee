"""Autonomous-system numbers and AS-number sets.

RPKI certificates may carry AS-number resources alongside IP resources
(RFC 3779); ROAs bind one origin ASN to a prefix.  We model 32-bit ASNs
(RFC 6793) throughout.

:class:`AsnRange` and :class:`AsnSet` are thin types over the interval
algebra of :mod:`repro.resources.intervals`, the one the address sets
use: a single AS number or range is answered by one bisection, ``covers``
and ``overlaps`` of a set by one bisection per range, and ``subtract``
and ``union`` by one linear merge, O(n + m).
"""

from __future__ import annotations

import enum
import functools

from .errors import AsnValueError
from .intervals import Interval, IntervalSet

__all__ = ["ASN", "AsnRange", "AsnSet", "AS_MAX"]

AS_MAX = 2**32 - 1


@functools.total_ordering
class ASN:
    """A single autonomous-system number.

    A thin value type rather than a bare int so that route and ROA
    signatures are self-documenting and so ``ASN.parse`` can accept the
    common ``"AS7341"`` spelling.
    """

    __slots__ = ("_value",)

    def __init__(self, value: int):
        if not 0 <= value <= AS_MAX:
            raise AsnValueError(f"AS number out of range: {value}")
        self._value = value

    @classmethod
    def parse(cls, text: str | int) -> "ASN":
        """Parse ``7341``, ``"7341"`` or ``"AS7341"`` (case-insensitive)."""
        if isinstance(text, int):
            return cls(text)
        cleaned = text.strip()
        if cleaned.upper().startswith("AS"):
            cleaned = cleaned[2:]
        try:
            return cls(int(cleaned))
        except ValueError as exc:
            raise AsnValueError(f"bad AS number: {text!r}") from exc

    @property
    def value(self) -> int:
        return self._value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ASN):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "ASN") -> bool:
        if isinstance(other, ASN):
            return self._value < other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("ASN", self._value))

    def __int__(self) -> int:
        return self._value

    def __str__(self) -> str:
        return f"AS{self._value}"

    def __repr__(self) -> str:
        return f"ASN({self._value})"


class _AsNumbers(enum.Enum):
    """AS numbers as an interval family, beside the two address families
    of :class:`~repro.resources.ipaddr.Afi` (``rank`` is the plain copy
    of ``value`` the interval algebra orders by)."""

    ASN = 0

    rank: int

    def __init__(self, code: int):
        self.rank = code


class AsnRange(Interval):
    """An inclusive range of AS numbers."""

    __slots__ = ("_start", "_end")

    _afi = _AsNumbers.ASN

    def __init__(self, start: int, end: int):
        if not 0 <= start <= end <= AS_MAX:
            raise AsnValueError(f"bad ASN range [{start}, {end}]")
        self._start = start
        self._end = end

    def _with(self, start: int, end: int) -> "AsnRange":
        return AsnRange(start, end)

    @classmethod
    def single(cls, asn: ASN | int) -> "AsnRange":
        value = int(asn)
        return cls(value, value)

    def __str__(self) -> str:
        if self._start == self._end:
            return f"AS{self._start}"
        return f"AS{self._start}-AS{self._end}"

    def __repr__(self) -> str:
        return f"AsnRange({self._start}, {self._end})"


class AsnSet(IntervalSet):
    """An immutable, normalized set of AS numbers.

    The AS-number side of an RFC 3779 resource extension.  ``covers``,
    ``overlaps``, ``subtract``, ``intersect`` and ``union`` take another
    set, an :class:`AsnRange`, an :class:`ASN` or an int.
    """

    __slots__ = ()

    _MEMBERS = (ASN, int)

    @staticmethod
    def _interval_of(item: object) -> AsnRange | None:
        if isinstance(item, (ASN, int)):
            return AsnRange.single(item)
        return item if isinstance(item, AsnRange) else None

    def __repr__(self) -> str:
        return f"AsnSet({list(self._ranges)!r})"
