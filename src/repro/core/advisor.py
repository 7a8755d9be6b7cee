"""A deployment advisor: the paper's operational lessons as tooling.

The paper ends by asking for "monitoring and configuration tools [that]
could be used to mitigate these risks" (Section 4).  This module is the
configuration-tool half.  Given what an operator intends to authorize and
what the RPKI and BGP currently look like, it produces a rollout plan
that avoids the self-inflicted side effects:

- **Side Effect 5**: ROAs ordered most-specific-first, and any *currently
  announced* route that would flip to invalid is flagged before a single
  object is signed ("a new ROA for a large prefix should be issued only
  after all ROAs for its subprefixes");
- **Side Effect 6**: intended ROAs that will end up *covered* by another
  ROA are flagged as fragile — if they ever go missing, their routes turn
  invalid, not unknown;
- **Side Effect 7**: repository placements whose own route depends on a
  ROA stored at that same repository are flagged, with the mirror
  recommendation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bgp import Origination
from ..repository import RepositoryRegistry
from ..rp import VRP, Route, RouteValidity, VrpSet, validate
from ..rpki import CertificateAuthority
from .circular import RepositoryDependencyGraph
from .missing import safe_issuance_order

__all__ = ["RolloutWarning", "RolloutPlan", "plan_rollout", "audit_repository_placement"]


@dataclass(frozen=True)
class RolloutWarning:
    """One thing that will break (or become fragile) during the rollout."""

    code: str           # "invalidates-route" | "covered-roa" | "self-hosted"
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.detail}"


@dataclass
class RolloutPlan:
    """An ordered, annotated plan for issuing a set of ROAs."""

    steps: list[VRP] = field(default_factory=list)
    warnings: list[RolloutWarning] = field(default_factory=list)

    def render(self) -> str:
        lines = ["rollout order (most specific first):"]
        lines += [f"  {index + 1}. issue {vrp}" for index, vrp in
                  enumerate(self.steps)]
        if self.warnings:
            lines.append("warnings:")
            lines += [f"  - {w}" for w in self.warnings]
        else:
            lines.append("no warnings: the rollout is side-effect-free")
        return "\n".join(lines)


def plan_rollout(
    intended: list[VRP],
    *,
    existing: VrpSet | None = None,
    announced_routes: list[Route] = (),
) -> RolloutPlan:
    """Order intended ROAs safely and predict the fallout.

    *announced_routes* is what BGP currently carries (the operator's own
    originations plus anything else they care about keeping reachable).
    """
    existing = existing or VrpSet()
    plan = RolloutPlan(steps=safe_issuance_order(list(intended)))

    # Side Effect 5: simulate the rollout step by step and check every
    # announced route after each issuance.
    state = VrpSet(existing)
    final = VrpSet(list(existing) + plan.steps)
    for vrp in plan.steps:
        state.add(vrp)
        for route in announced_routes:
            before = validate(route.prefix, route.origin, existing).state
            now_state = validate(route.prefix, route.origin, state).state
            end_state = validate(route.prefix, route.origin, final).state
            if (
                before is not RouteValidity.INVALID
                and now_state is RouteValidity.INVALID
                and end_state is RouteValidity.INVALID
            ):
                plan.warnings.append(RolloutWarning(
                    "invalidates-route", str(route),
                    f"becomes invalid once {vrp} is issued; authorize it "
                    "first or confirm it should be filtered",
                ))

    # Side Effect 6: which intended ROAs end up covered by another ROA?
    for vrp in plan.steps:
        covering = [
            other for other in final.covering(vrp.prefix)
            if other != vrp
        ]
        if covering:
            plan.warnings.append(RolloutWarning(
                "covered-roa", str(vrp),
                "if this ROA ever goes missing its route turns INVALID "
                f"(covered by {', '.join(str(c) for c in covering)}); "
                "monitor its renewal closely",
            ))

    # Dedupe repeated route warnings (a route flagged at one step stays
    # flagged; reporting it once is enough).
    seen: set[tuple[str, str]] = set()
    unique: list[RolloutWarning] = []
    for warning in plan.warnings:
        key = (warning.code, warning.subject)
        if key not in seen:
            seen.add(key)
            unique.append(warning)
    plan.warnings = unique
    return plan


def audit_repository_placement(
    registry: RepositoryRegistry,
    authorities: list[CertificateAuthority],
    originations: list[Origination],
) -> list[RolloutWarning]:
    """Side Effect 7 pre-flight: flag self-dependent repository placements."""
    analysis = RepositoryDependencyGraph.build(
        registry, authorities, originations
    )
    warnings = []
    for risk in analysis.cycles():
        if len(risk.cycle) == 1:
            detail = (
                "the ROA validating the route to this repository is stored "
                "at the repository itself"
            )
            if risk.covering_threat:
                detail += (
                    "; a covering ROA exists, so one transient fault makes "
                    "this a PERSISTENT failure under drop-invalid"
                )
            detail += " — publish a mirror outside this prefix"
            warnings.append(RolloutWarning(
                "self-hosted", risk.cycle[0], detail,
            ))
        else:
            warnings.append(RolloutWarning(
                "self-hosted", " -> ".join(risk.cycle),
                "circular repository dependency across multiple points",
            ))
    return warnings
