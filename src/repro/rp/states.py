"""Route validation states and the route value type.

"Each BGP route for prefix π and origin AS a is classified with one of
three validation states" (paper, Section 4; RFC 6811).  The enum ordering
encodes preference — valid routes are preferred over unknown over invalid
— which the depref-invalid BGP policy uses directly.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

from ..resources import ASN, Prefix

__all__ = ["RouteValidity", "Route"]


@functools.total_ordering
class RouteValidity(enum.Enum):
    """RFC 6811 route validation state, ordered best-first."""

    VALID = "valid"
    UNKNOWN = "unknown"
    INVALID = "invalid"

    @property
    def rank(self) -> int:
        """0 best (valid), 2 worst (invalid)."""
        return _RANKS[self]

    def __lt__(self, other: "RouteValidity") -> bool:
        if not isinstance(other, RouteValidity):
            return NotImplemented
        return self.rank < other.rank


_RANKS = {
    RouteValidity.VALID: 0,
    RouteValidity.UNKNOWN: 1,
    RouteValidity.INVALID: 2,
}


class Route(NamedTuple):
    """A BGP route as the paper defines it: an IP prefix and an origin AS.

    An immutable value: it compares, sorts and hashes as the tuple
    ``(prefix, origin)``, and equals that plain tuple.
    """

    prefix: Prefix
    origin: ASN

    @classmethod
    def parse(cls, prefix_text: str, origin: ASN | int) -> "Route":
        return cls(Prefix.parse(prefix_text), ASN(int(origin)))

    def __str__(self) -> str:
        return f"({self.prefix}, {self.origin})"
