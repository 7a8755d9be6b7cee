"""The chaos-campaign runner: randomized fault plans, checked invariants.

One campaign builds **four identically seeded worlds** and runs them in
clock lockstep for N refresh cycles:

- *clean*: no faults at all; the ground truth.
- *faulted*, *cold*: a relying party that keeps its validation state
  across refreshes and its cold twin — the same class, which clears that
  state (``incremental_state.clear()``) before every refresh — both fed
  the **identical** seeded fault plan through their own
  :class:`~repro.repository.faults.FaultInjector` (same seed, same fetch
  order, therefore the same fault stream).
- *scheduled*: a relying party running the
  :class:`~repro.repository.scheduler.FetchScheduler` defense under the
  same fault plan.  Its fetch order legitimately diverges (deferral is
  the whole point), so it is exempt from the equivalence invariant but
  subject to safety — and to **bounded interference**: under any plan,
  a slow or amplifying authority must not starve *unrelated*
  authorities' publication points beyond a configured staleness bound.

An RTR fan-out rides on the faulted variant: the cache + router pair,
plus a :class:`~repro.rtr.CacheChain` of non-validating caches
re-serving the cache's beliefs tier by tier — with its own chaos:
garbage bytes mid-session, abrupt channel closes, and severed chain
links (which must heal by reconnecting).

After every cycle four invariants are checked:

- **safety** — each faulted variant's VRP set is a subset of the clean
  run's: faults may *remove* validated origins, never invent them.
- **equivalence** — keeping state never changes a verdict: the faulted
  RP and its cold twin agree exactly under the identical fault plan
  (the one warm-vs-cold check under composed timing and Byzantine
  faults), the attached router's table matches
  after resync, and **every chained cache in every tier** serves exactly
  the validating RP's set once pumped.
- **no-crash** — nothing anywhere raises out of the cycle: a violation
  of the containment contract is an unhandled exception here.
- **bounded interference** — on the scheduled variant, every cached
  publication point *not* recently covered by a timing fault must have
  refreshed successfully within ``interference_bound`` simulated
  seconds: one authority's slow subtree may cost itself freshness, never
  its neighbors'.

On violation the campaign stops and :func:`shrink_plan` delta-debugs the
fault plan down to a minimal reproducer by re-running reduced plans from
scratch (everything is a pure function of seed + plan, so re-execution is
exact).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..jurisdiction.regions import RIR
from ..modelgen import DeploymentConfig, build_deployment
from ..repository import Fetcher, FaultInjector
from ..repository.faults import POINT_KINDS
from ..rpki import RsyncUri
from ..rp import RelyingParty
from ..rtr import (
    CacheChain,
    DuplexPipe,
    RouterState,
    RtrCacheServer,
    RtrRouterClient,
)
from ..telemetry import MetricsRegistry
from .plan import FaultPlan, PlannedFault, build_plan
from ..repository.faults import FaultKind

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "Violation",
    "run_campaign",
    "shrink_plan",
]

# The RTR fan-out riding on the faulted variant: chained-cache tiers
# below the validating cache, and children per cache.
RTR_TIERS = 1
RTR_FANOUT = 2
# Campaign re-executions one shrink may spend.
MAX_SHRINK_RUNS = 200


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one campaign: seed, cycle count, and what is staged.

    *plant_violation* stages the stealthy-delete + replay demo;
    *amplification_points* has one authority mint that many delegated
    slow points (the Stalloris shape).  The world (two RIRs, one ISP
    and one customer each, one ROA apiece), the timings and the RTR
    fan-out are fixed.
    """

    seed: int = 7
    cycles: int = 20
    plant_violation: bool = False
    amplification_points: int = 0

    gap_seconds = 900       # simulated time between cycles
    attempt_timeout = 600   # fetcher deadline (bounds STALL cost)

    def deployment(self) -> DeploymentConfig:
        return DeploymentConfig(
            seed=self.seed,
            rirs=tuple(RIR)[:2],
            isps_per_rir=1,
            customers_per_isp=1,
            roas_per_isp=1,
            roas_per_customer=1,
            amplification_points=self.amplification_points,
        )

    @property
    def interference_bound(self) -> int:
        """The staleness bound the scheduled variant must hold.

        It covers the scheduled relying party's worst case for points no
        timing fault recently covered: an unrelated point refreshes every
        cycle, so its age stays under one cycle gap plus a few
        authority-budget-sized fetch bursts on either side of its own
        fetch — while an *unscheduled* starved point's age grows by a
        full cycle every cycle and crosses any fixed bound.
        """
        return 4 * (self.gap_seconds + 2 * self.attempt_timeout)


@dataclass(frozen=True)
class Violation:
    """One invariant broken at one cycle."""

    cycle: int
    # "safety" | "equivalence" | "no-crash" | "bounded-interference"
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"cycle {self.cycle}: {self.invariant}: {self.detail}"


@dataclass
class CampaignResult:
    """What one campaign execution did and found."""

    plan: FaultPlan
    cycles_run: int = 0
    violation: Violation | None = None
    faults_fired: int = 0
    quarantined_objects: int = 0
    degraded_points: int = 0
    rtr_events: int = 0
    chain_caches: int = 0
    clean_vrps: int = 0
    # Worst unrelated-point staleness age observed on the scheduled
    # variant, and the bound it was held to.
    interference_worst: int = 0
    interference_bound: int = 0
    metrics: MetricsRegistry | None = None

    @property
    def ok(self) -> bool:
        return self.violation is None


class _Variant:
    """One relying party (plus optional fault injector) over one world.

    A *cold* variant forgets its validation state before every refresh.
    """

    def __init__(self, name: str, world, config: CampaignConfig,
                 *, faulted: bool, cold: bool = False,
                 scheduled: bool = False):
        self.name = name
        self.world = world
        self.cold = cold
        self.metrics = MetricsRegistry()
        self.faults = (
            FaultInjector(seed=config.seed) if faulted else None
        )
        fetcher = Fetcher(
            world.registry, world.clock,
            faults=self.faults,
            attempt_timeout=config.attempt_timeout,
            metrics=self.metrics,
            identity=f"chaos-{'faulted' if faulted else 'clean'}",
        )
        self.rp = RelyingParty(
            world.trust_anchors, fetcher,
            scheduled=scheduled,
            metrics=self.metrics,
        )

    def refresh(self):
        if self.cold:
            self.rp.incremental_state.clear()
        return self.rp.refresh()

    def vrp_set(self) -> frozenset:
        return self.rp.vrps.as_frozenset()


class _Campaign:
    """Mutable state of one campaign execution."""

    def __init__(self, config: CampaignConfig, plan: FaultPlan | None):
        self.config = config
        self.metrics = MetricsRegistry()
        self._m_cycles = self.metrics.counter(
            "repro_chaos_cycles_total", help="campaign cycles completed"
        )
        self._m_scheduled = self.metrics.counter(
            "repro_chaos_faults_scheduled_total",
            help="planned faults scheduled onto injectors, by kind",
            labelnames=("kind",),
        )
        self._m_rtr_events = self.metrics.counter(
            "repro_chaos_rtr_events_total",
            help="RTR chaos events injected, by kind",
            labelnames=("kind",),
        )
        self._m_violations = self.metrics.counter(
            "repro_chaos_violations_total",
            help="invariant violations detected, by invariant",
            labelnames=("invariant",),
        )

        deployment = config.deployment()
        self.clean = _Variant(
            "clean", build_deployment(deployment), config, faulted=False
        )
        self.faulted = _Variant(
            "faulted", build_deployment(deployment), config, faulted=True
        )
        self.cold = _Variant(
            "cold", build_deployment(deployment), config, faulted=True,
            cold=True,
        )
        # The defense under test: an RP running the fetch scheduler,
        # whose authority budget is one attempt deadline — enough for a
        # first contact plus a recovery probe per slow host per cycle.
        self.scheduled = _Variant(
            "scheduled", build_deployment(deployment), config, faulted=True,
            scheduled=True,
        )
        self.under_faults = (self.faulted, self.cold, self.scheduled)
        self.variants = (self.clean, *self.under_faults)
        self.worlds = [variant.world for variant in self.variants]
        self.t0 = self.scheduled.world.clock.now

        points = sorted(
            _normalize(ca.sia)
            for ca in self.clean.world.authorities()
            if ca.sia
        )
        self.plant_cycle: int | None = None
        self.plant_handle = ""
        self.plant_roa = ""
        if config.plant_violation:
            target = next(
                ca for ca in self.clean.world.authorities() if ca.issued_roas
            )
            self.plant_cycle = max(1, config.cycles // 2)
            self.plant_handle = target.handle
            self.plant_roa = sorted(target.issued_roas)[0]
        if plan is None:
            plan = build_plan(config.seed, config.cycles, points)
            if self.plant_cycle is not None:
                # The staged misbehavior: a persistent stale-but-signed
                # replay pinning the pre-deletion state of the target CA.
                target = self.clean.world.authorities()
                target_ca = next(
                    ca for ca in target if ca.handle == self.plant_handle
                )
                plan = plan.with_faults([PlannedFault(
                    cycle=self.plant_cycle,
                    kind=FaultKind.MANIFEST_REPLAY,
                    point_uri=_normalize(target_ca.sia),
                    persistent=True,
                )])
        self.plan = plan

        # Renewal rotation fixed at campaign start, so churn is identical
        # across executions regardless of the (possibly shrunk) plan.
        self.renewables = [
            (ca.handle, sorted(ca.issued_roas)[0])
            for ca in self.clean.world.authorities()
            if ca.issued_roas
        ]

        # RTR rides on the faulted variant.
        self.server = RtrCacheServer(metrics=self.faulted.metrics)
        self.pipe: DuplexPipe | None = None
        self.router: RtrRouterClient | None = None
        self.rtr_rng = random.Random(config.seed ^ 0x52545221)
        self._attach_router()
        # The fan-out tree: non-validating caches re-serving the faulted
        # variant's beliefs, checked tier by tier every cycle.
        self.chain = CacheChain(
            self.server, tiers=RTR_TIERS, fanout=RTR_FANOUT
        )

    # -- plumbing ------------------------------------------------------------

    def _attach_router(self) -> None:
        self.pipe = DuplexPipe()
        self.server.attach(self.pipe)
        self.router = RtrRouterClient(self.pipe)
        self.router.connect()
        self.server.process()
        self.router.process()

    def _advance_clocks(self) -> None:
        target = max(w.clock.now for w in self.worlds) + self.config.gap_seconds
        for world in self.worlds:
            world.clock.at_least(target)

    def _authority(self, world, handle: str):
        for ca in world.authorities():
            if ca.handle == handle:
                return ca
        return None

    def _churn(self, cycle: int) -> None:
        """Additive-only repository churn, identical in every world.

        Renewals keep checkpoints moving (feeding the replay faults);
        the occasional brand-new ROA grows the clean VRP set so the
        safety invariant is tested against a moving target.  Nothing is
        ever deleted or revoked here — removal is exclusively the staged
        violation's job.
        """
        rng = random.Random((self.config.seed << 16) ^ cycle)
        handle, roa_name = self.renewables[cycle % len(self.renewables)]
        for world in self.worlds:
            ca = self._authority(world, handle)
            if ca is not None and roa_name in ca.issued_roas:
                ca.renew_roa(roa_name)
        if cycle % 4 == 2:
            donor_handle, donor_roa = self.renewables[
                rng.randrange(len(self.renewables))
            ]
            asn = 64512 + cycle
            for world in self.worlds:
                ca = self._authority(world, donor_handle)
                if ca is None or donor_roa not in ca.issued_roas:
                    continue
                prefix = ca.issued_roas[donor_roa].prefixes[0].prefix
                ca.issue_roa(asn, str(prefix), name=f"chaos-{cycle}.roa")

    def _plant(self, cycle: int) -> None:
        if self.plant_cycle is None or cycle != self.plant_cycle:
            return
        # The stealthy deletion of the paper's Side Effect 2, staged in
        # every world: no CRL entry, manifest updated.  Clean sees the
        # ROA vanish; a replayed point resurrects it.
        for world in self.worlds:
            ca = self._authority(world, self.plant_handle)
            if ca is not None and self.plant_roa in ca.issued_roas:
                ca.delete_object(self.plant_roa)

    def _schedule(self, cycle: int) -> None:
        active = self.plan.active_at(cycle)
        for variant in self.under_faults:
            variant.faults.clear()
            for planned in active:
                planned.schedule_on(variant.faults)
        for planned in active:
            self._m_scheduled.inc(kind=planned.kind.value)

    def _rtr_cycle(self, result: CampaignResult, report) -> None:
        """Sync the router, with seeded session-level chaos.

        *report* is the faulted variant's refresh: its net table change
        is what the cache installs (the server starts as empty as the
        relying party does, so no bootstrap ``update`` is needed).
        """
        if self.rtr_rng.random() < 0.25 and not self.pipe.closed:
            # Malformed bytes from the "router": the cache must answer
            # with an Error Report and drop the session, never raise.
            self.pipe.to_cache.send(b"\x99\x00\x00\x07chaos!")
            self.server.process()
            self.router.process()
            self._m_rtr_events.inc(kind="garbage")
            result.rtr_events += 1
            self._attach_router()
        if self.rtr_rng.random() < 0.15:
            self.pipe.close()
            self.server.process()
            self._m_rtr_events.inc(kind="close")
            result.rtr_events += 1
            self._attach_router()
        if self.router.state is RouterState.FAILED or self.pipe.closed:
            self._attach_router()
        if self.rtr_rng.random() < 0.1:
            # Sever a random chain link; the next pump must heal it
            # with a reconnect and a full resync.
            caches = self.chain.caches()
            caches[self.rtr_rng.randrange(len(caches))].pipe.close()
            self._m_rtr_events.inc(kind="chain-close")
            result.rtr_events += 1
        self.server.apply_delta(report.announced, report.withdrawn)
        self.router.process()   # Serial Notify -> router polls
        self.server.process()   # answer the Serial Query
        self.router.process()   # apply the delta
        self.chain.pump()       # propagate down every tier

    # -- the loop ------------------------------------------------------------

    def run(self) -> CampaignResult:
        result = CampaignResult(plan=self.plan, metrics=self.metrics)
        for cycle in range(self.config.cycles):
            violation = self._cycle(cycle, result)
            result.cycles_run = cycle + 1
            self._m_cycles.inc()
            if violation is not None:
                result.violation = violation
                self._m_violations.inc(invariant=violation.invariant)
                break
        result.clean_vrps = len(self.clean.rp.vrps)
        result.chain_caches = len(self.chain.caches())
        for variant in (self.faulted, self.cold):
            result.faults_fired += (
                len(variant.faults.applied) + variant.faults.applied_dropped
            )
        return result

    def _cycle(self, cycle: int, result: CampaignResult) -> Violation | None:
        try:
            self._advance_clocks()
            self._churn(cycle)
            self._plant(cycle)
            self._schedule(cycle)
            reports = {variant.name: variant.refresh()
                       for variant in self.variants}
            report = reports["faulted"]
            result.quarantined_objects += len(
                report.degradation.quarantined_objects
            )
            result.degraded_points += len(report.degradation.degraded_points)
            self._rtr_cycle(result, report)
        except Exception as exc:  # the no-crash invariant itself
            return Violation(
                cycle, "no-crash", f"{type(exc).__name__}: {exc}"
            )

        clean_set = self.clean.vrp_set()
        for variant in self.under_faults:
            extras = variant.vrp_set() - clean_set
            if extras:
                shown = ", ".join(str(v) for v in sorted(extras)[:3])
                return Violation(
                    cycle, "safety",
                    f"{variant.name} RP accepted {len(extras)} VRP(s) the "
                    f"clean run never produced: {shown}",
                )
        faulted_set, cold_set = self.faulted.vrp_set(), self.cold.vrp_set()
        if cold_set != faulted_set:
            return Violation(
                cycle, "equivalence",
                f"faulted RP diverged from its cold twin under the "
                f"identical fault plan "
                f"({len(faulted_set)} vs {len(cold_set)} VRPs)",
            )
        router_set = self.router.vrp_set().as_frozenset()
        if router_set != faulted_set:
            return Violation(
                cycle, "equivalence",
                f"router table diverged from its cache after resync "
                f"({len(router_set)} vs {len(faulted_set)} VRPs)",
            )
        for tier_index in range(self.chain.tiers):
            for position, cache in enumerate(self.chain.tier(tier_index)):
                served = cache.current_vrps()
                if served != faulted_set:
                    return Violation(
                        cycle, "equivalence",
                        f"chained cache tier {tier_index} #{position} "
                        f"diverged from the validating RP "
                        f"({len(served)} vs {len(faulted_set)} VRPs)",
                    )
        return self._check_interference(cycle, result)

    def _check_interference(
        self, cycle: int, result: CampaignResult
    ) -> Violation | None:
        """The bounded-interference invariant on the scheduled variant.

        Points recently covered by a point-level fault (the timing and
        availability kinds, including AMPLIFY's subtree prefixes) are
        exempt — the attacker may of course cost *itself* freshness.
        Every other cached point must have refreshed successfully within
        :attr:`CampaignConfig.interference_bound`; staleness there means
        one authority's slowness leaked onto its neighbors.  The lookback
        window covers every cycle whose fault could still legitimately age
        a point at the bound.
        """
        bound = self.config.interference_bound
        result.interference_bound = bound
        now = self.scheduled.world.clock.now
        lookback = bound // self.config.gap_seconds + 2
        exempt = tuple({
            planned.point_uri
            for planned in self.plan.faults
            if planned.kind in POINT_KINDS and any(
                planned.active_at(k)
                for k in range(max(0, cycle - lookback), cycle + 1)
            )
        })
        for point in self.scheduled.rp.cache.points():
            if exempt and point.uri.startswith(exempt):
                continue
            since = point.last_success if point.last_success >= 0 else self.t0
            age = now - since
            result.interference_worst = max(result.interference_worst, age)
            if age > bound:
                return Violation(
                    cycle, "bounded-interference",
                    f"unrelated point {point.uri} stale for {age}s on the "
                    f"scheduled RP (bound {bound}s)",
                )
        return None


def run_campaign(
    config: CampaignConfig, plan: FaultPlan | None = None
) -> CampaignResult:
    """Execute one campaign; pure function of ``(config, plan)``.

    With ``plan=None`` the plan is built from the config's seed (plus the
    staged replay fault when ``plant_violation`` is set).  Passing an
    explicit plan re-executes exactly that plan — the shrinker's loop.
    """
    return _Campaign(config, plan).run()


def shrink_plan(
    config: CampaignConfig, plan: FaultPlan
) -> tuple[FaultPlan, int]:
    """Delta-debug *plan* to a minimal still-violating reproducer.

    Returns ``(minimal plan, campaigns executed)``.  Strategy: confirm
    the violation, drop everything scheduled after the violating cycle,
    try each fault alone, then greedily remove entries one at a time
    until no single removal still violates — at most
    :data:`MAX_SHRINK_RUNS` campaigns in all.
    """
    runs = 0

    def violates(candidate: FaultPlan) -> bool:
        nonlocal runs
        runs += 1
        return run_campaign(config, candidate).violation is not None

    baseline = run_campaign(config, plan)
    runs += 1
    if baseline.violation is None:
        raise ValueError("plan does not violate; nothing to shrink")

    best = plan
    truncated = FaultPlan(
        seed=plan.seed, cycles=plan.cycles,
        faults=tuple(
            f for f in plan.faults if f.cycle <= baseline.violation.cycle
        ),
    )
    if len(truncated) < len(best) and violates(truncated):
        best = truncated

    for index in range(len(best.faults)):
        if runs >= MAX_SHRINK_RUNS:
            return best, runs
        single = FaultPlan(
            seed=best.seed, cycles=best.cycles,
            faults=(best.faults[index],),
        )
        if len(best) > 1 and violates(single):
            return single, runs

    improved = True
    while improved and runs < MAX_SHRINK_RUNS:
        improved = False
        for index in range(len(best.faults)):
            if runs >= MAX_SHRINK_RUNS:
                break
            candidate = best.without(index)
            if violates(candidate):
                best = candidate
                improved = True
                break
    return best, runs


def _normalize(sia: str) -> str:
    return str(RsyncUri.parse(sia))
