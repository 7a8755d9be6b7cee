"""Alternative route-validity semantics (the paper's footnote 5).

"Note that, in principle, other design choices are possible, e.g.,
requiring each ROA to explicitly indicate which routes for its subprefixes
should remain valid or unknown."  And among the closing open problems:
"Is the RPKI's sensitivity to missing objects caused by fundamental design
requirements, or are there alternate architectures that are more robust?"

This module makes that alternative concrete so the question can be
answered experimentally.  A :class:`DispositionVrp` is a VRP plus an
explicit *subprefix disposition*:

- ``INVALID`` — unauthorized routes under this ROA are invalid (exactly
  RFC 6811; protects against subprefix hijacks, but a missing subordinate
  ROA leaves its route invalid — Side Effect 6);
- ``UNKNOWN`` — unauthorized routes under this ROA fall back to unknown
  (missing information degrades gracefully, but longest-prefix match means
  a subprefix hijacker's route is *used* — no hijack protection).

:func:`classify_disposition` applies the rule: a route with a matching ROA
is valid; otherwise, if any covering ROA says INVALID, the route is
invalid; if covering ROAs exist but all say UNKNOWN, the route is unknown.
The ablation benchmark quantifies the paper's answer: the sensitivity *is*
fundamental — each disposition buys robustness against one threat by
surrendering it against the other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..resources import Prefix
from .states import Route, RouteValidity
from .vrp import VRP, VrpSet

__all__ = ["SubprefixDisposition", "DispositionVrp", "classify_disposition"]


class SubprefixDisposition(enum.Enum):
    """What a ROA says about unauthorized routes underneath it."""

    INVALID = "invalid"    # RFC 6811 behaviour (the RPKI's actual choice)
    UNKNOWN = "unknown"    # the footnote-5 alternative


@dataclass(frozen=True)
class DispositionVrp:
    """A VRP with an explicit subprefix disposition."""

    vrp: VRP
    disposition: SubprefixDisposition = SubprefixDisposition.INVALID

    @classmethod
    def parse(
        cls,
        text: str,
        asn: int,
        disposition: SubprefixDisposition = SubprefixDisposition.INVALID,
    ) -> "DispositionVrp":
        return cls(VRP.parse(text, asn), disposition)

    @property
    def prefix(self) -> Prefix:
        return self.vrp.prefix


class DispositionVrpSet:
    """A prefix-indexed set of disposition-annotated VRPs."""

    def __init__(self, entries: list[DispositionVrp] | None = None):
        self._plain = VrpSet()
        self._dispositions: dict[VRP, SubprefixDisposition] = {}
        for entry in entries or []:
            self.add(entry)

    def add(self, entry: DispositionVrp) -> None:
        self._plain.add(entry.vrp)
        # If the same payload appears twice, the stricter disposition wins
        # (a relying party cannot safely ignore an INVALID vote).
        current = self._dispositions.get(entry.vrp)
        if current is not SubprefixDisposition.INVALID:
            self._dispositions[entry.vrp] = entry.disposition

    def covering(self, prefix: Prefix):
        for vrp in self._plain.covering(prefix):
            yield vrp, self._dispositions[vrp]

    def __len__(self) -> int:
        return len(self._plain)


def classify_disposition(
    route: Route, vrps: DispositionVrpSet
) -> RouteValidity:
    """Classify under footnote-5 semantics."""
    covered_invalid = False
    covered_any = False
    for vrp, disposition in vrps.covering(route.prefix):
        covered_any = True
        if vrp.matches(route.prefix, route.origin):
            return RouteValidity.VALID
        if disposition is SubprefixDisposition.INVALID:
            covered_invalid = True
    if covered_invalid:
        return RouteValidity.INVALID
    if covered_any:
        return RouteValidity.UNKNOWN
    return RouteValidity.UNKNOWN
