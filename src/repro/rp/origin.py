"""RFC 6811 route origin validation.

The three-state classifier of the paper's Section 4, verbatim:

- **Valid**: there is a valid *matching* ROA — matching origin AS, a
  prefix that covers the route's prefix, and a maxLength no shorter than
  the route's prefix length.
- **Unknown**: there is no valid *covering* ROA at all.
- **Invalid**: neither — some ROA covers the prefix, but none matches.

The subtlety the paper builds Side Effects 5 and 6 on lives entirely in
the gap between "covering" and "matching": removing a matching ROA while a
covering one remains flips a route from valid to *invalid*, not unknown,
and adding a covering ROA flips unknown routes to invalid.

:func:`validate` is the single entry point — it returns the state *and*
the evidence (which VRPs covered, which matched), and both the BGP policy
layer and the ``repro.api`` query plane call it.
"""

from __future__ import annotations

from typing import NamedTuple

from ..resources import ASN, Prefix
from .states import Route, RouteValidity
from .vrp import VRP, VrpSet

__all__ = ["OriginValidationOutcome", "validate"]

# Builds a NamedTuple without its own __new__, a Python frame per call.
_tuple_new = tuple.__new__


class OriginValidationOutcome(NamedTuple):
    """A classification together with the evidence behind it.

    An immutable value: it compares and hashes as the tuple ``(route,
    state, matching, covering)``, and equals that plain tuple.
    """

    route: Route
    state: RouteValidity
    matching: tuple[VRP, ...]
    covering: tuple[VRP, ...]

    def __str__(self) -> str:
        return f"{self.route} -> {self.state.value}"


def validate(
    prefix: Prefix | str, origin: ASN | int, vrps: VrpSet
) -> OriginValidationOutcome:
    """RFC 6811 origin validation of one announcement, with evidence.

    The unified entry point: one index query collects every *covering* VRP
    (any origin) and every *matching* VRP (covers, within maxLength, same
    AS), and the state falls out of the two lists — matching present →
    valid; covering but no match → invalid; neither → unknown.  The
    route-validity matrices (Figure 5), the BGP policy layer, and the
    ``repro.api`` query plane all go through here, so there is exactly
    one implementation of the covering/matching gap the paper's Side
    Effects 5 and 6 turn on.
    """
    if not isinstance(prefix, Prefix):
        prefix = Prefix.parse(prefix)
    if isinstance(origin, ASN):
        origin_as = origin.value
    else:
        origin_as = int(origin)
        origin = ASN(origin_as)
    covering = vrps.covering(prefix)
    # A VRP is (bits, network, length, maxLength, AS number).
    length = prefix.length
    matching = []
    for vrp in covering:
        if length <= vrp[3] and vrp[4] == origin_as:
            matching.append(vrp)
    if matching:
        state = RouteValidity.VALID
    elif covering:
        state = RouteValidity.INVALID
    else:
        state = RouteValidity.UNKNOWN
    return _tuple_new(OriginValidationOutcome, (
        _tuple_new(Route, (prefix, origin)), state, tuple(matching), covering,
    ))
