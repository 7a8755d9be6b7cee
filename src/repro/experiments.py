"""The paper's worked experiments, one implementation each.

Figures 2, 3 and 5, Tables 4 and 6, Side Effects 6 and 7, the Section 7
granularity argument, the monitoring open problem and the stalled
authority are each one plain function here, with the published
parameters as defaults.  A function returns the domain object that
already renders itself (:class:`~repro.core.ValidityMatrix`,
:class:`~repro.core.TradeoffTable`, ...) or a small result whose
``render()`` is the artifact text.  Three views share it and add nothing
to the scenario: ``benchmarks/test_bench_<name>.py`` asserts the paper's
claims on the result and commits ``render()`` under
``benchmarks/artifacts/``; ``python -m repro <cmd>`` (:mod:`repro.cli`)
prints the same ``render()`` plus a line of commentary; ``examples/*.py``
narrate the result.  They can disagree about prose, never about the
experiment.

The catalogue of all seven side effects closes the module: each
``demonstrate_side_effect_N`` drives its scenario (reusing the ones
above where the paper does) and returns a :class:`SideEffectReport`
whose ``claims`` are checked facts — a report is only returned if the
side effect actually manifested.  ``python -m repro sideeffects`` prints
:func:`demonstrate_all`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bgp import AsGraph, LocalPolicy
from .core import (
    BlastRadius, ClosedLoopSimulation, DamagedObject,
    RepositoryDependencyGraph, RoaRemovalImpact, ScenarioError,
    TradeoffScenario, TradeoffTable, ValidityMatrix, WhackMethod, WhackPlan,
    collateral_of_revocation, execute_whack, missing_roa_impact,
    new_roa_impact, plan_whack, reclaim_space, run_tradeoff,
    validity_matrix, whack_blast_radius,
)
from .jurisdiction import CrossBorderFinding, cross_border_audit
from .modelgen import (
    DeploymentWorld, Figure2World, build_figure2, build_table4_world,
    figure2_bgp,
)
from .monitor import (
    Alert, ChurnConfig, ChurnEngine, DetectionExperiment, StallDetector,
    analyze, diff_snapshots, take_snapshot,
)
from .repository import PERSISTENT, FaultInjector, FaultKind, Fetcher
from .rp import VRP, RefreshReport, RelyingParty, RouteValidity, VrpSet
from .simtime import HOUR
from .telemetry import MetricsRegistry

__all__ = [
    "CONTINENTAL_POINT", "ETB_POINT", "FIGURE2_VRPS", "FIGURE5_RIGHT_ROA",
    "ClosedLoopRun", "Figure2Model", "GranularitySweep", "MissingRoaTable",
    "SideEffectReport", "StalledAuthorityRun", "circular_dependencies",
    "demonstrate_all", "figure2", "figure2_vrps", "figure3", "figure5",
    "granularity", "monitor_detection", "revocation_collateral",
    "side_effect6", "side_effect7", "stalled_authority", "table4", "table6",
]

# What a relying party derives from the Figure 2 world: its eight ROAs
# as (prefix[-maxLength], origin AS).
FIGURE2_VRPS = (
    ("63.161.0.0/16-24", 1239),
    ("63.162.0.0/16-24", 1239),
    ("63.168.93.0/24", 19429),
    ("63.174.16.0/20", 17054),
    ("63.174.16.0/22", 7341),
    ("63.174.20.0/24", 17054),
    ("63.174.28.0/24", 17054),
    ("63.174.30.0/24", 17054),
)
# The ROA Sprint adds in Figure 5 (right): it covers, without matching,
# everything below the /13s — Side Effect 5, and condition (b) of the
# Section 6 circular dependency.
FIGURE5_RIGHT_ROA = ("63.160.0.0/12-13", 1239)

CONTINENTAL_POINT = "rsync://continental.example/repo/"
ETB_POINT = "rsync://etb.example/repo/"


def figure2_vrps(*extra: tuple[str, int]) -> VrpSet:
    """The Figure 2 VRP set, plus any *extra* ``(prefix, asn)`` specs."""
    return VrpSet(VRP.parse(text, asn) for text, asn in FIGURE2_VRPS + extra)


@dataclass
class Figure2Model:
    """The Figure 2 world and one relying party's clean refresh over it."""

    world: Figure2World
    rp: RelyingParty
    report: RefreshReport

    def render(self) -> str:
        lines = ["Figure 2 — excerpt of a model RPKI", ""]
        for ca in self.world.authorities():
            parent = ca.parent.handle if ca.parent else "(trust anchor)"
            lines.append(
                f"{ca.handle:<24} {str(ca.resources):<34} parent: {parent}")
            lines += [f"    ROA {roa.describe()}"
                      for roa in ca.issued_roas.values()]
        return "\n".join(lines)


def figure2() -> Figure2Model:
    """Figure 2: build the model hierarchy and validate it end to end."""
    world = build_figure2()
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock))
    return Figure2Model(world, rp, rp.refresh())


def figure3(target: int) -> tuple[Figure2World, WhackPlan]:
    """Figure 3: Sprint whacks Continental's /*target* ROA in a fresh world.

    ``20`` is the grandchild whack of Side Effect 3 (a clean hole
    exists), ``22`` the overlapped target of Figure 3 (make-before-
    break).  Returns the world *after* the whack and the plan, whose
    ``describe()`` is the artifact.
    """
    world = build_figure2()
    plan = plan_whack(
        world.sprint, getattr(world, f"target{target}"), world.continental)
    execute_whack(plan)
    return world, plan


def revocation_collateral() -> list[DamagedObject]:
    """The blunt alternative to Figure 3: the other ROAs lost if Sprint
    revokes Continental's whole RC to kill (63.174.16.0/20, AS 17054)."""
    world = build_figure2()
    damage = collateral_of_revocation(world.continental, world.target20)
    return [item for item in damage if item.kind == "roa"]


def figure5(right: bool = False) -> ValidityMatrix:
    """Figure 5: validity of 63.160.0.0/12 and its subprefixes under the
    Figure 2 ROAs (left), or with Sprint's /12-13 ROA added (*right*)."""
    vrps = figure2_vrps(FIGURE5_RIGHT_ROA) if right else figure2_vrps()
    return validity_matrix(
        vrps, "63.160.0.0/12",
        lengths=[12, 13, 14, 16, 20, 22, 24], origins=[1239, 17054, 7341],
    )


def table4() -> tuple[DeploymentWorld, list[CrossBorderFinding]]:
    """Table 4: audit the world seeded with the paper's nine rows; render
    the findings with :func:`repro.jurisdiction.render_table4`."""
    world = build_table4_world()
    return world, cross_border_audit(world.roots, world.as_country)


def table6() -> TradeoffTable:
    """Table 6: the 2x2 policy/threat experiment on the reference topology.

    Two tier-1s (100, 200), three mid-tier providers (10, 20, 30),
    stubs, a victim (AS 4, 10.4.0.0/16) and an attacker (AS 666); the
    covering ROA (10.0.0.0/8, AS 10) is what survives the whack.
    """
    graph = AsGraph.from_links(
        provider_links=[
            (100, 10), (100, 20), (200, 20), (200, 30),
            (10, 1), (20, 2), (30, 3), (10, 4), (30, 666),
        ],
        peer_links=[(100, 200)],
    )
    return run_tradeoff(TradeoffScenario.build(
        graph, victim_prefix="10.4.0.0/16", victim=4, attacker=666,
        covering_prefix="10.0.0.0/8", covering_origin=10,
    ))


@dataclass
class MissingRoaTable:
    """What each Figure 2 route becomes when its own ROA goes missing."""

    impacts: dict[str, RoaRemovalImpact]   # keyed by str(vrp)

    def render(self) -> str:
        return "\n".join([
            "Side Effect 6 — what happens when each Figure 2 ROA goes "
            "missing", "",
            *(f"{name:<28} -> {impact.resulting_state.value}"
              for name, impact in sorted(self.impacts.items())),
        ])


def side_effect6() -> MissingRoaTable:
    """Side Effect 6: remove each Figure 2 ROA in turn, reclassify its
    route."""
    vrps = figure2_vrps()
    return MissingRoaTable(
        {str(vrp): missing_roa_impact(vrps, vrp) for vrp in vrps})


def _circular_world():
    """Figure 2 with condition (b) in place, then its BGP topology."""
    world = build_figure2()
    world.sprint.issue_roa(FIGURE5_RIGHT_ROA[1], FIGURE5_RIGHT_ROA[0])
    return world, *figure2_bgp()


def circular_dependencies() -> RepositoryDependencyGraph:
    """Section 6, statically: which repositories depend on themselves?"""
    world, _graph, originations, _rp_asn = _circular_world()
    return RepositoryDependencyGraph.build(
        world.registry, [world.arin], originations)


@dataclass
class ClosedLoopRun:
    """A finished :class:`~repro.core.ClosedLoopSimulation`."""

    loop: ClosedLoopSimulation

    def render(self) -> str:
        return "\n".join([
            f"Side Effect 7 under {self.loop.policy.value}", "",
            *map(str, self.loop.epochs),
        ])


def side_effect7(policy: LocalPolicy | str, seed: int = 7) -> ClosedLoopRun:
    """Side Effect 7: six epochs of fetch + validate + route; after the
    first, ONE corrupted fetch of Continental's self-hosted /20 ROA."""
    world, graph, originations, rp_asn = _circular_world()
    faults = FaultInjector(seed=seed)
    loop = ClosedLoopSimulation(
        registry=world.registry, authorities=[world.arin], graph=graph,
        originations=originations, rp_asn=rp_asn,
        policy=LocalPolicy(policy), clock=world.clock, faults=faults,
    )
    loop.step()
    faults.schedule(
        FaultKind.CORRUPT, CONTINENTAL_POINT, file_name=world.target20_name)
    loop.run(5)
    return ClosedLoopRun(loop)


def monitor_detection(
    sloppy_prob: float, seed: int = 11,
) -> DetectionExperiment:
    """Monitoring: ten epochs of churn over Figure 2, two whacks hidden in it.

    The grandchild shrink lands at epoch 3, the make-before-break at
    epoch 7; *sloppy_prob* is the share of benign retirements done
    without a CRL entry.  ``experiment.score().render()`` is the
    artifact, ``experiment.history`` the per-epoch alerts.
    """
    world = build_figure2()
    targets = {3: world.target20, 7: world.target22}
    churn = ChurnEngine(
        world.authorities(),
        config=ChurnConfig(
            renew_rate=0.4, new_roa_rate=0.2, retire_rate=0.15,
            sloppy_delete_prob=sloppy_prob,
        ),
        seed=seed,
        # Keep the attack targets out of benign retirement so the
        # injected attacks are the only thing that ever whacks them.
        protected={roa.describe() for roa in targets.values()},
    )
    experiment = DetectionExperiment(
        registry=world.registry, trust_anchors=world.trust_anchors,
        churn=churn, clock=world.clock)

    def whack(target):
        def attack() -> list[str]:
            plan = plan_whack(world.sprint, target, world.continental)
            execute_whack(plan)
            # Ground truth includes the suspiciously reissued objects:
            # the monitor flagging those IS detecting this attack.
            return [target.describe()] + [
                d.description for d in plan.reissued]
        return attack

    for epoch in range(10):
        target = targets.get(epoch)
        experiment.run_epoch(whack(target) if target else None)
    return experiment


@dataclass
class GranularitySweep:
    """Blast radius of whacking one address, per covering-ROA length."""

    rows: list[tuple[int, BlastRadius]]

    def render(self) -> str:
        return "\n".join([
            "Section 7 — takedown granularity (target: one address)", "",
            f"{'ROA length':<12}{'addresses disturbed':>22}"
            f"{'minimum takedown unit':>24}",
            *(f"/{length:<11}{radius.disturbed_addresses:>22}"
              f"{radius.minimum_unreachable:>24}"
              for length, radius in self.rows),
            "", "domain-name seizure equivalent: 1 name",
        ])


def granularity() -> GranularitySweep:
    """Section 7: whack 63.160.0.77 under a /24, /20, /16 and /12 ROA."""
    return GranularitySweep([
        (length, whack_blast_radius(
            "63.160.0.77",
            VrpSet([VRP.parse(f"63.160.0.0/{length}", 17054)])))
        for length in (24, 20, 16, 12)
    ])


@dataclass
class StalledAuthorityRun:
    """One relying party's epochs under a persistently stalling point."""

    rp: RelyingParty
    fetcher: Fetcher
    detector: StallDetector
    # Per epoch: simulated seconds spent fetching, the stall detector's
    # alerts, and the artifact line.
    costs: list[int] = field(default_factory=list)
    alert_log: list[list[Alert]] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def stalled_authority(
    resilient: bool,
    epochs: int = 6,
    seed: int = 17,
    metrics: MetricsRegistry | None = None,
) -> StalledAuthorityRun:
    """Resilience: one warm refresh, then *epochs* hourly refreshes while
    Continental's point stalls persistently and ETB's blips once.

    The *resilient* relying party fetches with deadlines, capped backoff
    and a per-host breaker, and keeps a 4 h stale-grace window and a
    10 min fetch budget; the unprotected one takes every default.
    *metrics* is the registry all three components report to (the
    process default if omitted).
    """
    world = build_figure2()
    faults = FaultInjector(seed=seed)
    fetcher = Fetcher(
        world.registry, world.clock, faults=faults, metrics=metrics,
        resilient=resilient,
    )
    posture = dict(stale_grace=4 * HOUR, fetch_budget=600) if resilient else {}
    rp = RelyingParty(
        world.trust_anchors, fetcher, metrics=metrics, **posture)
    run = StalledAuthorityRun(rp, fetcher, StallDetector(metrics=metrics))

    rp.refresh()  # healthy warm-up: cache fully populated
    faults.schedule(FaultKind.STALL, CONTINENTAL_POINT, count=PERSISTENT)
    faults.schedule(FaultKind.FLAKY, ETB_POINT, count=1)  # one benign blip
    for epoch in range(1, epochs + 1):
        world.clock.advance(HOUR)
        before = world.clock.now
        report = rp.refresh()
        cost = world.clock.now - before
        alerts = run.detector.observe(report.fetches)
        run.costs.append(cost)
        run.alert_log.append(alerts)
        run.lines.append(
            f"epoch {epoch}: cost={cost}s vrps={len(rp.vrps)} "
            f"stale={len(report.stale_points)} "
            f"expired={len(report.expired_points)} "
            f"alerts={[a.kind.value for a in alerts]}"
        )
    return run


# ---------------------------------------------------------------------------
# the side-effect catalogue
# ---------------------------------------------------------------------------


@dataclass
class SideEffectReport:
    """One side effect's demonstration: the claims it checked."""

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


def demonstrate_side_effect_1() -> SideEffectReport:
    """Unilateral reclamation of IP address allocations, with little recourse."""
    report = SideEffectReport(1, "unilateral reclamation, little recourse")
    world = build_figure2()
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
    report = SideEffectReport(2, "stealthy revocation of a child's object")
    world = build_figure2()
    before = take_snapshot(world.registry, world.clock.now,
                           trust_anchors=world.trust_anchors)
    world.continental.delete_object(world.target22_name)
    after = take_snapshot(world.registry, world.clock.now,
                          trust_anchors=world.trust_anchors)
    rp = RelyingParty(world.trust_anchors, Fetcher(world.registry, world.clock))
    rp.refresh()
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
    """Targeted whacking of a grandchild ROA: Figure 3's clean hole."""
    report = SideEffectReport(3, "targeted whacking of a grandchild")
    world, plan = figure3(20)
    report.check(
        plan.method is WhackMethod.OVERWRITE_SHRINK,
        "Sprint can whack its grandchild ROA by shrinking Continental's RC",
    )
    report.check(plan.collateral_count == 0,
                 "the hole overlaps no other object: zero collateral damage")
    rp = RelyingParty(world.trust_anchors, Fetcher(world.registry, world.clock))
    rp.refresh()
    report.check(
        rp.classify_parts("63.174.16.0/20", 17054) is not RouteValidity.VALID
        and len(rp.vrps) == 7,
        "after execution only the target ROA is gone",
    )
    return report


def demonstrate_side_effect_4() -> SideEffectReport:
    """Whacking of great-grandchildren and beyond."""
    report = SideEffectReport(4, "whacking great-grandchildren and beyond")
    world = build_figure2()
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
    """A new ROA can cause many routes to become invalid: Figure 5's
    right-hand ROA over the Figure 2 VRPs."""
    report = SideEffectReport(5, "a new ROA invalidates previously unknown routes")
    impact = new_roa_impact(
        figure2_vrps(), VRP.parse(*FIGURE5_RIGHT_ROA), probe_length=16)
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
    world = build_figure2()
    faults = FaultInjector(seed=1)
    faults.schedule(
        FaultKind.DROP, CONTINENTAL_POINT, file_name=world.target22_name)
    rp = RelyingParty(
        world.trust_anchors,
        Fetcher(world.registry, world.clock, faults=faults))
    rp.refresh()
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
    """Transient faults cause long-term failures: :func:`side_effect7`
    under drop-invalid, the fault at epoch 1."""
    report = SideEffectReport(7, "transient faults become persistent failures")
    epochs = side_effect7(LocalPolicy.DROP_INVALID).loop.epochs
    report.check(
        CONTINENTAL_POINT in epochs[4].unreachable_points,
        "one corrupted fetch of the self-hosted ROA, and the repository is "
        "unreachable three epochs after the fault cleared",
    )
    report.check(
        epochs[-1].unreachable_points == [CONTINENTAL_POINT],
        "the relying party keeps trying and keeps failing: the missing ROA "
        "is stored behind the route it would validate",
    )
    return report


def demonstrate_all() -> list[SideEffectReport]:
    """Run the whole catalogue, in order."""
    return [run() for run in (
        demonstrate_side_effect_1, demonstrate_side_effect_2,
        demonstrate_side_effect_3, demonstrate_side_effect_4,
        demonstrate_side_effect_5, demonstrate_side_effect_6,
        demonstrate_side_effect_7,
    )]
