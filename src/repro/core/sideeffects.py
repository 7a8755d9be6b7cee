"""The paper's seven side effects, each as a one-call demonstration.

Every ``demonstrate_side_effect_N`` builds a fresh Figure 2 world, drives
the scenario the paper describes, and returns a :class:`SideEffectReport`
whose ``claims`` are checked facts (each one is asserted during the run —
a report is only returned if the side effect actually manifested).  The
CLI's ``sideeffects`` command prints the whole catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..repository import FaultInjector, FaultKind, Fetcher
from ..rp import RelyingParty, RouteValidity
from .errors import ScenarioError

__all__ = ["SideEffectReport", "demonstrate", "demonstrate_all", "SIDE_EFFECTS"]


@dataclass
class SideEffectReport:
    number: int
    title: str
    claims: list[str] = field(default_factory=list)

    def check(self, condition: bool, claim: str) -> None:
        """Record a claim, insisting that it actually held."""
        if not condition:
            raise ScenarioError(
                f"side effect {self.number} failed to manifest: {claim}"
            )
        self.claims.append(claim)

    def render(self) -> str:
        lines = [f"Side Effect {self.number}: {self.title}"]
        lines += [f"  - {claim}" for claim in self.claims]
        return "\n".join(lines)


def _fresh_world():
    from ..modelgen import build_figure2

    return build_figure2()


def _rp_for(world, **kwargs):
    rp = RelyingParty(
        world.trust_anchors,
        Fetcher(world.registry, world.clock, faults=kwargs.pop("faults", None)),
        **kwargs,
    )
    rp.refresh()
    return rp


def demonstrate_side_effect_1() -> SideEffectReport:
    """Unilateral reclamation of IP address allocations, with little recourse."""
    from .reclaim import reclaim_space

    report = SideEffectReport(1, "unilateral reclamation, little recourse")
    world = _fresh_world()
    outcome = reclaim_space(world.sprint, world.continental,
                            roots=[world.arin])
    report.check(
        str(outcome.reclaimed) == "{63.174.16.0/20}",
        "Sprint reclaimed Continental Broadband's entire /20 by revoking "
        "one certificate",
    )
    report.check(
        len(outcome.whacked_roas) == 5,
        "all five of the tenant's ROAs were whacked in the process",
    )
    report.check(
        outcome.recourse == ["ARIN", "Sprint"],
        "only the ancestor chain (ARIN, Sprint) can reissue the space — "
        "no web-PKI-style third party exists",
    )
    return report


def demonstrate_side_effect_2() -> SideEffectReport:
    """Stealthy revocation of a child's object."""
    from ..monitor import analyze, diff_snapshots, take_snapshot

    report = SideEffectReport(2, "stealthy revocation of a child's object")
    world = _fresh_world()
    before = take_snapshot(world.registry, world.clock.now,
                           trust_anchors=world.trust_anchors)
    world.continental.delete_object(world.target22_name)
    after = take_snapshot(world.registry, world.clock.now,
                           trust_anchors=world.trust_anchors)
    rp = _rp_for(world)
    report.check(
        len(rp.vrps) == 7 and not rp.last_run.errors(),
        "the ROA vanished and validation still looks perfectly clean",
    )
    alerts = analyze(diff_snapshots(before, after), before, after)
    report.check(
        any(a.kind.value == "stealthy-deletion" for a in alerts),
        "only a diff-based monitor notices: no CRL entry was ever written",
    )
    return report


def demonstrate_side_effect_3() -> SideEffectReport:
    """Targeted whacking of a grandchild ROA."""
    from .whack import WhackMethod, execute_whack, plan_whack

    report = SideEffectReport(3, "targeted whacking of a grandchild")
    world = _fresh_world()
    plan = plan_whack(world.sprint, world.target20, world.continental)
    report.check(
        plan.method is WhackMethod.OVERWRITE_SHRINK,
        "Sprint can whack its grandchild ROA by shrinking Continental's RC",
    )
    report.check(plan.collateral_count == 0,
                 "the hole overlaps no other object: zero collateral damage")
    execute_whack(plan)
    rp = _rp_for(world)
    report.check(
        rp.classify_parts("63.174.16.0/20", 17054) is not RouteValidity.VALID
        and len(rp.vrps) == 7,
        "after execution only the target ROA is gone",
    )
    return report


def demonstrate_side_effect_4() -> SideEffectReport:
    """Whacking of great-grandchildren and beyond."""
    from .whack import WhackMethod, plan_whack

    report = SideEffectReport(4, "whacking great-grandchildren and beyond")
    world = _fresh_world()
    grandparent_plan = plan_whack(world.sprint, world.target20,
                                  world.continental)
    great_plan = plan_whack(world.arin, world.target20, world.continental)
    report.check(
        great_plan.shrink_child is world.sprint,
        "ARIN reaches the target by overwriting its own child (Sprint)",
    )
    report.check(
        great_plan.suspicious_reissue_count
        > grandparent_plan.suspicious_reissue_count,
        "deeper whacking requires more suspiciously-reissued objects "
        f"({great_plan.suspicious_reissue_count} vs "
        f"{grandparent_plan.suspicious_reissue_count}) — easier to detect",
    )
    return report


def demonstrate_side_effect_5() -> SideEffectReport:
    """A new ROA can cause many routes to become invalid."""
    from ..rp import VRP, VrpSet
    from .missing import new_roa_impact
    from .whack import subtree_roas

    report = SideEffectReport(5, "a new ROA invalidates previously unknown routes")
    world = _fresh_world()
    vrps = VrpSet(
        VRP(rp_entry.prefix, rp_entry.effective_max_length, roa.asn)
        for _h, _n, roa in subtree_roas(world.arin)
        for rp_entry in roa.prefixes
    )
    impact = new_roa_impact(
        vrps, VRP.parse("63.160.0.0/12-13", 1239), probe_length=16
    )
    report.check(
        impact.newly_invalid_prefixes >= 12,
        f"issuing (63.160.0.0/12-13, AS 1239) flips "
        f"{impact.newly_invalid_prefixes} of {impact.probe_count} probed /16 "
        "routes from unknown to invalid",
    )
    return report


def demonstrate_side_effect_6() -> SideEffectReport:
    """A missing ROA can cause a route to become invalid."""
    report = SideEffectReport(6, "a missing ROA makes a route invalid")
    world = _fresh_world()
    faults = FaultInjector(seed=1)
    faults.schedule(
        FaultKind.DROP, "rsync://continental.example/repo/",
        file_name=world.target22_name,
    )
    rp = _rp_for(world, faults=faults)
    report.check(
        rp.classify_parts("63.174.16.0/22", 7341) is RouteValidity.INVALID,
        "one dropped fetch and the /22 route is INVALID — not unknown — "
        "because the /20 ROA covers it",
    )
    report.check(
        rp.last_run.has_issue("manifest-file-missing"),
        "the manifest is the only thing that even noticed the file missing",
    )
    return report


def demonstrate_side_effect_7() -> SideEffectReport:
    """Transient faults cause long-term failures."""
    from ..bgp import LocalPolicy
    from ..modelgen import figure2_bgp
    from .circular import ClosedLoopSimulation

    report = SideEffectReport(7, "transient faults become persistent failures")
    world = _fresh_world()
    world.sprint.issue_roa(1239, "63.160.0.0/12-13")
    graph, originations, rp_asn = figure2_bgp()
    faults = FaultInjector(seed=7)
    loop = ClosedLoopSimulation(
        registry=world.registry, authorities=[world.arin],
        graph=graph, originations=originations, rp_asn=rp_asn,
        policy=LocalPolicy.DROP_INVALID, clock=world.clock, faults=faults,
    )
    loop.step()
    faults.schedule(
        FaultKind.CORRUPT, "rsync://continental.example/repo/",
        file_name=world.target20_name,
    )
    loop.run(4)
    report.check(
        not loop.can_reach("63.174.23.0", 17054),
        "one corrupted fetch of the self-hosted ROA, and the repository is "
        "unreachable three epochs after the fault cleared",
    )
    report.check(
        loop.epochs[-1].unreachable_points == [
            "rsync://continental.example/repo/"
        ],
        "the relying party keeps trying and keeps failing: the missing ROA "
        "is stored behind the route it would validate",
    )
    return report


SIDE_EFFECTS = {
    1: demonstrate_side_effect_1,
    2: demonstrate_side_effect_2,
    3: demonstrate_side_effect_3,
    4: demonstrate_side_effect_4,
    5: demonstrate_side_effect_5,
    6: demonstrate_side_effect_6,
    7: demonstrate_side_effect_7,
}


def demonstrate(number: int) -> SideEffectReport:
    """Run one side effect's demonstration."""
    try:
        runner = SIDE_EFFECTS[number]
    except KeyError:
        raise ScenarioError(f"the paper has side effects 1-7, not {number}")
    return runner()


def demonstrate_all() -> list[SideEffectReport]:
    """Run the whole catalog, in order."""
    return [SIDE_EFFECTS[n]() for n in sorted(SIDE_EFFECTS)]
