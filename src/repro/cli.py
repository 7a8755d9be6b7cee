"""Command-line interface: regenerate any paper artifact from the shell.

::

    python -m repro fig2            # the model RPKI of Figure 2
    python -m repro fig3            # both whacking walkthroughs
    python -m repro fig5 [--right]  # route-validity matrices
    python -m repro tab4            # the cross-border audit
    python -m repro tab6            # the policy-tradeoff table
    python -m repro se6             # missing-ROA impact analysis
    python -m repro se7 [--policy drop-invalid|depref-invalid]
    python -m repro monitor         # whacks-in-churn detection scores
    python -m repro granularity     # Section 7 takedown-granularity sweep
    python -m repro sideeffects     # all seven side effects, demonstrated
    python -m repro resilience      # stalled authority vs. resilient fetcher
    python -m repro perf            # cold vs. warm incremental revalidation
    python -m repro refresh         # one refresh cycle over a generated world
    python -m repro chaos           # Byzantine fault campaign + shrink demo
    python -m repro stalloris       # amplified slowdown vs. fetch scheduler
    python -m repro api             # the origin-validation query plane
    python -m repro rtr             # router-fleet fan-out over chained caches
    python -m repro profile         # cProfile a refresh, rank the hotspots
    python -m repro all             # everything, in order

Every command is deterministic (fixed seeds) and prints a self-contained
text artifact; the same computations back the pytest benchmarks.  Every
command accepts the same option trio: ``--emit-metrics`` / ``--json``
appends the rendered telemetry registry (see docs/telemetry.md for the
metric inventory), ``--seed N`` reseeds whatever randomness the command
consumes, and ``--scale`` sizes its generated deployment — the
hierarchical shapes (``small`` / ``medium`` / ``large``) or the flat
Internet-scale family (``internet-small`` / ``internet`` /
``internet-large``, 10⁴–10⁵ ROAs; see
:data:`repro.modelgen.INTERNET_SCALES`).  Commands pinned to the paper's
hand-built fixtures (fig2, fig5, tab4, ...) accept the trio for
uniformity but regenerate the published artifact regardless of seed or
scale.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

__all__ = ["main"]


# ---------------------------------------------------------------------------
# shared construction
# ---------------------------------------------------------------------------


def _build_rp(world, **opts):
    """One relying party wired to *world*, telemetry and faults included.

    The shared boilerplate every command needs: a
    :class:`~repro.repository.Fetcher` over the world's registry and
    clock, handed to a :class:`~repro.rp.RelyingParty`.  Keyword options
    are split between the two constructors: ``reachability``, ``faults``
    and ``metrics`` go to the fetcher; everything else (``keep_stale``,
    ``strict_manifests``) to the relying party, which shares the same
    telemetry registry.
    """
    from .repository import Fetcher
    from .rp import RelyingParty

    fetcher_opts = {
        key: opts.pop(key)
        for key in ("reachability", "faults", "metrics")
        if key in opts
    }
    fetcher = Fetcher(world.registry, world.clock, **fetcher_opts)
    return RelyingParty(
        world.trust_anchors, fetcher,
        metrics=fetcher.metrics, **opts,
    )


def _seed(args, default: int) -> int:
    """The command's seed: ``--seed`` when given, its pinned default else."""
    value = getattr(args, "seed", None)
    return default if value is None else value


def _scale(args, default: str) -> str:
    """The command's deployment scale, same resolution as :func:`_seed`."""
    value = getattr(args, "scale", None)
    return default if value is None else value


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_fig2(_args) -> None:
    from .modelgen import build_figure2

    world = build_figure2()
    print("Figure 2 — excerpt of a model RPKI\n")
    for ca in world.authorities():
        parent = ca.parent.handle if ca.parent else "(trust anchor)"
        print(f"{ca.handle:<24} {str(ca.resources):<36} parent: {parent}")
        for roa in ca.issued_roas.values():
            print(f"    ROA {roa.describe()}")
    rp = _build_rp(world)
    report = rp.refresh()
    print(f"\nrelying party: {len(rp.vrps)} VRPs, "
          f"{len(report.run.errors())} errors")


def cmd_fig3(_args) -> None:
    from .core import collateral_of_revocation, execute_whack, plan_whack
    from .modelgen import build_figure2

    world = build_figure2()
    blunt = collateral_of_revocation(world.continental, world.target20)
    print("Revoking Continental Broadband's RC would whack "
          f"{len([d for d in blunt if d.kind == 'roa'])} additional ROAs.\n")
    for target_name, target in [
        ("grandchild target (Side Effect 3)", world.target20),
        ("overlapped target (Figure 3)", world.target22),
    ]:
        fresh = build_figure2()
        fresh_target = (
            fresh.target20 if target is world.target20 else fresh.target22
        )
        plan = plan_whack(fresh.sprint, fresh_target, fresh.continental)
        print(f"== {target_name} ==")
        print(plan.describe())
        execute_whack(plan)
        print()


def cmd_fig5(args) -> None:
    from .core import validity_matrix
    from .rp import VRP, VrpSet

    specs = [
        ("63.161.0.0/16-24", 1239), ("63.162.0.0/16-24", 1239),
        ("63.168.93.0/24", 19429), ("63.174.16.0/20", 17054),
        ("63.174.16.0/22", 7341), ("63.174.20.0/24", 17054),
        ("63.174.28.0/24", 17054), ("63.174.30.0/24", 17054),
    ]
    if args.right:
        specs.append(("63.160.0.0/12-13", 1239))
        print("Figure 5 (right): with ROA (63.160.0.0/12-13, AS 1239)\n")
    else:
        print("Figure 5 (left): the Figure 2 ROAs\n")
    vrps = VrpSet(VRP.parse(t, a) for t, a in specs)
    matrix = validity_matrix(
        vrps, "63.160.0.0/12",
        lengths=[12, 13, 16, 20, 22, 24],
        origins=[1239, 17054, 7341],
    )
    print(matrix.render())


def cmd_tab4(_args) -> None:
    from .jurisdiction import cross_border_audit, render_table4
    from .modelgen import build_table4_world

    world = build_table4_world()
    findings = cross_border_audit(world.roots, world.as_country)
    print("Table 4 — RCs & the countries they cover outside the\n"
          "jurisdiction of their parent RIR\n")
    print(render_table4(findings))


def cmd_tab6(_args) -> None:
    from .bgp import AsGraph
    from .core import TradeoffScenario, run_tradeoff

    graph = AsGraph.from_links(
        provider_links=[
            (100, 10), (100, 20), (200, 20), (200, 30),
            (10, 1), (20, 2), (30, 3), (10, 4), (30, 666),
        ],
        peer_links=[(100, 200)],
    )
    scenario = TradeoffScenario.build(
        graph, "10.4.0.0/16", 4, 666,
        covering_prefix="10.0.0.0/8", covering_origin=10,
    )
    print("Table 6 — impact of different local policies\n")
    print(run_tradeoff(scenario).render())


def cmd_se6(_args) -> None:
    from .core import missing_roa_impact
    from .rp import VRP, VrpSet

    specs = [
        ("63.161.0.0/16-24", 1239), ("63.162.0.0/16-24", 1239),
        ("63.168.93.0/24", 19429), ("63.174.16.0/20", 17054),
        ("63.174.16.0/22", 7341), ("63.174.20.0/24", 17054),
        ("63.174.28.0/24", 17054), ("63.174.30.0/24", 17054),
    ]
    vrps = VrpSet(VRP.parse(t, a) for t, a in specs)
    print("Side Effect 6 — route state if each ROA goes missing\n")
    for vrp in vrps:
        impact = missing_roa_impact(vrps, vrp)
        marker = "  <-- invalid, not unknown!" if impact.becomes_invalid else ""
        print(f"{str(vrp):<30} -> {impact.resulting_state.value}{marker}")


def cmd_se7(args) -> None:
    from .bgp import LocalPolicy
    from .core import ClosedLoopSimulation
    from .modelgen import build_figure2, figure2_bgp
    from .repository import FaultInjector, FaultKind

    policy = LocalPolicy(args.policy)
    world = build_figure2()
    world.sprint.issue_roa(1239, "63.160.0.0/12-13")
    graph, originations, rp_asn = figure2_bgp()
    faults = FaultInjector(seed=_seed(args, 7))
    loop = ClosedLoopSimulation(
        registry=world.registry, authorities=[world.arin],
        graph=graph, originations=originations, rp_asn=rp_asn,
        policy=policy, clock=world.clock, faults=faults,
    )
    print(f"Side Effect 7 closed loop under {policy.value}\n")
    for epoch in range(6):
        if epoch == 1:
            print("!! injecting one corrupted fetch of the self-hosted ROA")
            faults.schedule(
                FaultKind.CORRUPT, "rsync://continental.example/repo/",
                file_name=world.target20_name,
            )
        report = loop.step()
        state = "VALID" if loop.route_is_valid("63.174.16.0/20", 17054) \
            else "INVALID"
        reach = "reachable" if loop.can_reach("63.174.23.0", 17054) \
            else "UNREACHABLE"
        print(f"epoch {epoch}: {report.vrp_count} VRPs | repo route {state} "
              f"| repo {reach}")
    healed = loop.can_reach("63.174.23.0", 17054)
    print("\n=> " + ("recovered" if healed else
                     "PERSISTENT FAILURE (manual intervention required)"))


def cmd_monitor(args) -> None:
    from .core import execute_whack, plan_whack
    from .modelgen import build_figure2
    from .monitor import ChurnConfig, ChurnEngine, DetectionExperiment

    world = build_figure2()
    churn = ChurnEngine(
        world.authorities(),
        config=ChurnConfig(sloppy_delete_prob=0.5),
        seed=_seed(args, 11),
        protected={world.target20.describe(), world.target22.describe()},
    )
    experiment = DetectionExperiment(
        registry=world.registry, churn=churn, clock=world.clock
    )

    def attack():
        plan = plan_whack(world.sprint, world.target20, world.continental)
        execute_whack(plan)
        return [world.target20.describe()]

    for epoch in range(8):
        experiment.run_epoch(attack if epoch == 4 else None)
    print("Whack detection amid churn (attack at epoch 4, 50% sloppy ops)\n")
    print(experiment.score().render())


def cmd_granularity(_args) -> None:
    from .core import whack_blast_radius
    from .rp import VRP, VrpSet

    print("Section 7 — takedown granularity (target: one address)\n")
    print(f"{'ROA length':<12}{'addresses disturbed':>22}"
          f"{'minimum takedown unit':>24}")
    for roa_length in (24, 20, 16, 12):
        vrps = VrpSet([VRP.parse(f"63.160.0.0/{roa_length}", 17054)])
        radius = whack_blast_radius("63.160.0.77", vrps)
        print(f"/{roa_length:<11}{radius.disturbed_addresses:>22}"
              f"{radius.minimum_unreachable:>24}")
    print("\ndomain-name seizure equivalent: 1 name")


def cmd_resilience(args) -> None:
    from .modelgen import build_figure2
    from .monitor import StallDetector
    from .repository import (
        PERSISTENT,
        FaultInjector,
        FaultKind,
        Fetcher,
        ResilienceConfig,
    )
    from .rp import RelyingParty
    from .simtime import HOUR

    stalled = "rsync://continental.example/repo/"
    flaky = "rsync://etb.example/repo/"
    config = ResilienceConfig()
    epochs = args.epochs

    def run_variant(resilient: bool) -> tuple[list[str], int]:
        world = build_figure2()
        faults = FaultInjector(seed=_seed(args, 17))
        if resilient:
            fetcher = Fetcher(world.registry, world.clock, faults=faults,
                              resilience=config)
            rp = RelyingParty(world.trust_anchors, fetcher,
                              stale_grace=4 * HOUR, fetch_budget=10 * 60)
        else:
            fetcher = Fetcher(world.registry, world.clock, faults=faults)
            rp = RelyingParty(world.trust_anchors, fetcher)
        detector = StallDetector()
        rp.refresh()  # epoch 0: healthy warm-up, cache fully populated
        faults.schedule(FaultKind.STALL, stalled, count=PERSISTENT)
        faults.schedule(FaultKind.FLAKY, flaky, count=1)  # one benign blip
        rows, total = [], 0
        for epoch in range(1, epochs + 1):
            world.clock.advance(HOUR)
            before = world.clock.now
            report = rp.refresh()
            cost = world.clock.now - before
            total += cost
            alerts = detector.observe(report.fetches)
            breaker = fetcher.breakers.get("continental.example")
            state = breaker.state.value if breaker else "-"
            flagged = ",".join(sorted({a.kind.value for a in alerts})) or "-"
            rows.append(
                f"{epoch:>5}  {cost:>15}  {len(rp.vrps):>4}  "
                f"{len(report.stale_points):>5}  {len(report.expired_points):>7}  "
                f"{state:<9}  {flagged}"
            )
        return rows, total

    print("Stalled authority (Stalloris-style) vs. the fetch pipeline\n")
    print(f"stall target: {stalled} (persistent, from epoch 1)")
    print(f"benign churn: one transient flaky fetch of {flaky} at epoch 1\n")
    header = ("epoch  refresh-cost(s)  VRPs  stale  expired  breaker    alerts")
    for resilient in (False, True):
        if resilient:
            retry = config.retry
            print(f"== resilient fetcher ({retry.attempt_deadline} s deadline "
                  f"x {retry.max_attempts} attempts, per-host breaker, "
                  "4 h stale grace)")
        else:
            print("== unprotected fetcher (single attempt, 3600 s timeout, "
                  "stale served forever)")
        rows, total = run_variant(resilient)
        print(header)
        for row in rows:
            print(row)
        bound = (f"bounded by worst-case {config.retry.worst_case_seconds()} "
                 "s/refresh" if resilient else "grows linearly with the stall")
        print(f"total simulated seconds fetching: {total} ({bound})\n")
    print("=> the unprotected RP burns its whole refresh interval on the\n"
          "   stalled point every cycle; the resilient RP caps the cost,\n"
          "   opens the breaker, serves stale data through the grace window,\n"
          "   and the monitor pages on the sustained stall — after the grace\n"
          "   window the whacked point's routes downgrade to unknown, the\n"
          "   observable Stalloris endpoint.")


_REFRESH_SCALES = {
    "small": dict(isps_per_rir=2, customers_per_isp=1, suballocation_depth=1),
    "medium": dict(isps_per_rir=4, customers_per_isp=2, suballocation_depth=2),
    "large": dict(isps_per_rir=8, customers_per_isp=2, suballocation_depth=3),
}

# The flat Internet-scale family lives in repro.modelgen.INTERNET_SCALES;
# its names are repeated here (they are part of the CLI surface) so the
# parser can offer them without importing modelgen at startup.
_INTERNET_SCALE_NAMES = ("internet-small", "internet", "internet-large")


def _deployment_config(args, default_scale: str, default_seed: int):
    """Resolve ``--scale``/``--seed`` to a DeploymentConfig, either family.

    Hierarchical names index :data:`_REFRESH_SCALES`; Internet-scale
    names resolve through :func:`repro.profiling.resolve_scale` to the
    flat generator's configs.  Returns ``(scale_name, config)``.
    """
    from .profiling import resolve_scale

    scale = _scale(args, default_scale)
    return scale, resolve_scale(scale, _seed(args, default_seed))


def cmd_refresh(args) -> None:
    from .modelgen import build_deployment
    from .simtime import HOUR

    scale, config = _deployment_config(args, "medium", 21)
    world = build_deployment(config)
    rp = _build_rp(world)
    registry = rp.metrics
    world.clock.advance(HOUR)
    report = rp.refresh()
    print(f"One refresh over the {scale!r} deployment\n")
    print(f"deployment: {world.roa_count()} ROAs across "
          f"{len(world.authorities())} authorities "
          f"(suballocation depth {config.suballocation_depth})")
    counter = registry.get("repro_crypto_verify_total")
    verifies = (counter.value(outcome="accepted")
                + counter.value(outcome="rejected"))
    print(f"discovery rounds: {report.rounds}")
    print(f"RSA verifications: {int(verifies)}")
    print(f"validated CAs: {len(report.run.validated_cas)}  "
          f"ROAs: {report.run.roa_count}  "
          f"VRPs: {len(report.vrps)}  "
          f"errors: {len(report.run.errors())}")


def cmd_perf(args) -> None:
    from .modelgen import DeploymentConfig, build_deployment
    from .simtime import HOUR

    # --scale swaps in the shared deployment shapes (either family); the
    # default keeps the historical perf deployment (6 ISPs/RIR, 2
    # customers each).
    if getattr(args, "scale", None):
        _scale_name, config = _deployment_config(args, args.scale, 21)
    else:
        config = DeploymentConfig(
            seed=_seed(args, 21), isps_per_rir=6, customers_per_isp=2,
        )
    world = build_deployment(config)
    rp = _build_rp(world, mode="incremental")
    registry = rp.metrics

    def verify_total() -> float:
        counter = registry.get("repro_crypto_verify_total")
        return (counter.value(outcome="accepted")
                + counter.value(outcome="rejected"))

    def memo_counts() -> tuple[float, float]:
        memo = registry.get("repro_incremental_verify_memo_total")
        return memo.value(result="hit"), memo.value(result="miss")

    def point_counts() -> tuple[float, float]:
        points = registry.get("repro_incremental_points_total")
        return points.value(outcome="reused"), points.value(outcome="validated")

    epochs = args.epochs
    churn_epoch = epochs // 2
    churned_ca = next(ca for ca in world.authorities() if ca.issued_roas)
    roa_name = next(iter(churned_ca.issued_roas))
    # Step off the objects' exact not_before instants: a run performed
    # while now sits *on* a validity boundary is conservatively
    # revalidated after the boundary passes (see repro.rp.incremental).
    world.clock.advance(HOUR)

    print("Incremental validation: cold start, then steady-state refreshes\n")
    print(f"deployment: {world.roa_count()} ROAs across "
          f"{len(world.authorities())} authorities; one ROA renewed at "
          f"epoch {churn_epoch}\n")
    print("epoch  kind   RSA-verifies  memo-hit-rate  "
          "points reused/validated  VRPs")
    cold_verifies = warm_verifies = 0.0
    for epoch in range(epochs):
        kind = "cold"
        if epoch > 0:
            world.clock.advance(HOUR)
            kind = "warm"
        if epoch == churn_epoch:
            churned_ca.renew_roa(roa_name)
            kind = "churn"
        v0, (h0, m0), (r0, c0) = verify_total(), memo_counts(), point_counts()
        report = rp.refresh()
        v1, (h1, m1), (r1, c1) = verify_total(), memo_counts(), point_counts()
        lookups = (h1 - h0) + (m1 - m0)
        hit_rate = (h1 - h0) / lookups if lookups else 0.0
        if epoch == 0:
            cold_verifies = v1 - v0
        elif epoch == 1:
            warm_verifies = v1 - v0
        print(f"{epoch:>5}  {kind:<5}  {int(v1 - v0):>12}  "
              f"{hit_rate:>12.1%}  {int(r1 - r0):>13}/{int(c1 - c0)}"
              f"  {len(report.vrps):>4}")
    print(f"\n=> zero-churn warm refresh: {int(warm_verifies)} RSA "
          f"verifications (cold start needed {int(cold_verifies)});\n"
          "   renewing one ROA revalidates one publication point — cost\n"
          "   tracks churn, not repository size (docs/performance.md).")


def cmd_chaos(args) -> None:
    from .chaos import CampaignConfig, run_campaign, shrink_plan

    config = CampaignConfig(seed=_seed(args, 7), cycles=args.cycles)
    print(f"Chaos campaign: seed {config.seed}, {config.cycles} cycles — "
          "serial vs incremental\nrelying parties, a scheduled "
          "RP, plus an RTR router, under one\nseeded fault plan\n")
    result = run_campaign(config)
    print(f"fault plan ({len(result.plan)} faults):")
    print(result.plan.describe())
    print()
    print(f"cycles completed: {result.cycles_run}/{config.cycles}")
    print(f"faults fired: {result.faults_fired}  "
          f"objects quarantined: {result.quarantined_objects}  "
          f"points degraded: {result.degraded_points}  "
          f"rtr chaos events: {result.rtr_events}")
    print(f"clean VRPs at end: {result.clean_vrps}")
    print(f"scheduled RP worst unrelated-point age: "
          f"{result.interference_worst}s (bound {result.interference_bound}s)")
    if result.violation is None:
        print("invariants: safety, equivalence, bounded-interference, "
              "no-crash — held every cycle")
    else:
        print(f"INVARIANT VIOLATION: {result.violation}")

    print()
    print("== staged misbehavior: stealthy delete + persistent manifest "
          "replay ==")
    demo = CampaignConfig(
        seed=config.seed + 4,
        cycles=min(config.cycles, 6),
        plant_violation=True,
    )
    staged = run_campaign(demo)
    if staged.violation is None:
        print("(the staged violation did not reproduce at this seed)")
        return
    print(f"detected -> {staged.violation}")
    minimal, runs = shrink_plan(demo, staged.plan)
    print(f"shrunk the {len(staged.plan)}-fault plan to {len(minimal)} "
          f"fault(s) in {runs} campaign re-runs:")
    print(minimal.describe())


def cmd_stalloris(args) -> None:
    from .chaos import StallorisConfig, measure_stalloris

    config = StallorisConfig(
        seed=_seed(args, 1),
        amplification_points=args.points,
        cycles=args.attack_cycles,
    )
    print("Stalloris-grade slowdown: one authority's delegation tree turns "
          "into\n"
          f"{config.amplification_points} stalled publication points; "
          "both modes measured with the global\n"
          f"fetch budget ({config.fetch_budget}s) and with the per-authority "
          f"scheduler ({config.attempt_timeout}s/host)\n")
    report = measure_stalloris(config)
    print(report.render())
    budget = report.run("serial", False)
    sched = report.run("serial", True)
    print()
    print(f"=> the budgeted fetcher burns {config.fetch_budget}s/cycle "
          "inside the attacker's subtree\n"
          f"   and skips {budget.skipped[-1]} victim points every cycle: "
          "their cached data ages one full\n"
          "   cycle per cycle, unbounded — while still *counting* as valid "
          "VRPs, which is\n"
          "   exactly the downgrade window the attack buys.  The scheduler "
          "defers the\n"
          f"   slow children instead (deferred {sched.deferred[-1]}/cycle), "
          f"pins victim age at\n"
          f"   {sched.victim_age[-1]}s, and only the attacker's own "
          "delegations expire.")


def cmd_api(args) -> None:
    from .api import ApiConfig, QueryService, RateLimitConfig
    from .modelgen import build_deployment
    from .simtime import HOUR

    scale, config = _deployment_config(args, "small", 7)
    world = build_deployment(config)
    rp = _build_rp(world, mode="incremental")
    # The unthrottled service for the classification and diff sections;
    # rate limiting gets its own dedicated demo below.
    service = QueryService(rp, config=ApiConfig(rate_limit=None))
    world.clock.advance(HOUR)
    service.refresh()
    vrps = sorted(rp.vrps)
    print(f"Origin-validation query plane over the {scale!r} deployment "
          f"(seed {config.seed})\n")
    print(f"epoch serial {service.serial}: {len(vrps)} VRPs, "
          f"content hash {service.content_hash[:16]}...")

    print("\n== RFC 6811 classification (every VRP, then a forged origin) ==")
    states = {"valid": 0, "invalid": 0, "unknown": 0}
    for pass_number in (1, 2):
        for vrp in vrps:
            response = service.validate_route(vrp.prefix, vrp.asn)
            if pass_number == 1:
                states[response.payload.state.value] += 1
        forged = service.validate_route(vrps[0].prefix, 64666)
        if pass_number == 1:
            states[forged.payload.state.value] += 1
    hits, misses, _evictions = service.cache_stats()
    print(f"states: {states['valid']} valid, {states['invalid']} invalid, "
          f"{states['unknown']} unknown "
          f"(forged origin AS64666 -> {forged.payload.state.value})")
    print(f"two identical passes: {hits} cache hits / {misses} misses "
          "(second pass served entirely from cache)")

    print("\n== per-client rate limiting (token bucket, simulated clock) ==")
    limited = QueryService(rp, config=ApiConfig(
        rate_limit=RateLimitConfig(capacity=8, refill_per_second=1),
    ))
    burst = [limited.lookup_asn(int(vrps[0].asn), client="noisy").status
             for _ in range(12)]
    print(f"burst of 12 (capacity 8): {burst.count('ok')} ok, "
          f"{burst.count('rate-limited')} rate-limited")
    world.clock.advance(4)
    recovered = limited.lookup_asn(int(vrps[0].asn), client="noisy").status
    print(f"4 simulated seconds later (refill 1/s): {recovered}")

    print("\n== ROA whack, observed through the diff endpoint ==")
    whacked_ca = next(ca for ca in world.authorities() if ca.issued_roas)
    roa_name = next(iter(whacked_ca.issued_roas))
    whacked_ca.revoke_roa(roa_name)
    world.clock.advance(HOUR)
    service.refresh()
    diff = service.diff(1).payload
    print(f"revoked {roa_name} at {whacked_ca.handle}; "
          f"serial {diff.from_serial} -> {diff.to_serial}")
    for vrp in diff.removed:
        print(f"  removed {vrp}")
    for vrp in diff.added:
        print(f"  added   {vrp}")
    history = service.history().payload
    print("epoch history: " + ", ".join(
        f"serial {entry.serial} ({entry.vrp_count} VRPs)"
        for entry in history))


def cmd_rtr(args) -> None:
    from .modelgen import build_deployment
    from .rtr import (
        CacheChain, DuplexPipe, RouterState, RtrCacheServer, RtrRouterClient,
    )
    from .simtime import HOUR

    scale, config = _deployment_config(args, "small", 7)
    world = build_deployment(config)
    rp = _build_rp(world, mode="incremental")
    world.clock.advance(HOUR)
    rp.refresh()

    server = RtrCacheServer(history_window=4)
    server.update(rp.vrps)
    chain = CacheChain(server, tiers=args.tiers, fanout=args.fanout)
    chain.pump()
    print(f"RTR fan-out over the {scale!r} deployment (seed {config.seed})\n")
    print(f"validating cache: serial {server.serial}, "
          f"{server.vrp_count} VRPs, history window "
          f"{server.history_window} serials")
    print(f"chain: {args.tiers} tier(s) x fanout {args.fanout} = "
          f"{len(chain.caches())} non-validating caches "
          f"({len(chain.deepest())} at the deepest tier)")

    # A fleet of routers on the far edge, all synced through the chain.
    routers: list[RtrRouterClient] = []
    for cache in chain.deepest():
        for _ in range(args.routers):
            pipe = DuplexPipe()
            cache.server.attach(pipe)
            client = RtrRouterClient(pipe)
            client.connect()
            routers.append(client)
    for _ in range(2):
        for cache in chain.caches():
            cache.server.process()
        for client in routers:
            client.process()
    synced = sum(1 for c in routers if c.state is RouterState.SYNCED)
    agree = sum(
        1 for c in routers
        if c.vrp_set().as_frozenset() == server.current_vrps()
    )
    print(f"routers: {len(routers)} attached at the edge, {synced} synced, "
          f"{agree} serving exactly the validating RP's set\n")

    print("== churn: one ROA per cycle, propagated as deltas ==")
    donor = next(ca for ca in world.authorities() if ca.issued_roas)
    prefix = donor.issued_roas[sorted(donor.issued_roas)[0]].prefixes[0].prefix
    registry = server.metrics
    for cycle in range(3):
        donor.issue_roa(64512 + cycle, str(prefix), name=f"rtr-{cycle}.roa")
        world.clock.advance(HOUR)
        report = rp.refresh()
        server.apply_delta(report.announced, report.withdrawn)
        chain.pump()
        for client in routers:
            client.process()
        divergent = len(chain.divergent())
        print(f"cycle {cycle}: serial {server.serial}, "
              f"{server.vrp_count} VRPs, divergent deep caches: {divergent}")
    pdus = registry.get("repro_rtr_pdus_sent_total")
    print(f"delta serving: {pdus.value(type='prefix_pdu'):.0f} prefix PDUs, "
          f"{pdus.value(type='serial_notify'):.0f} serial notifies\n")

    print("== a laggard router falls out of the delta window ==")
    laggard_pipe = DuplexPipe()
    server.attach(laggard_pipe)
    laggard = RtrRouterClient(laggard_pipe)
    laggard.connect()
    server.process()
    laggard.process()
    stale_serial = laggard.serial
    for cycle in range(server.history_window + 2):
        donor.issue_roa(64600 + cycle, str(prefix), name=f"lag-{cycle}.roa")
        world.clock.advance(HOUR)
        report = rp.refresh()
        # The laggard never polls; its deltas compact away.
        server.apply_delta(report.announced, report.withdrawn)
    server.process()
    resets = registry.get("repro_rtr_cache_resets_total")
    before = resets.value(reason="compacted")
    laggard.poll()
    server.process()
    laggard.process()   # Cache Reset received -> Reset Query sent
    server.process()
    laggard.process()   # full snapshot applied
    compactions = registry.get("repro_rtr_compactions_total")
    print(f"slept from serial {stale_serial} to {server.serial} while "
          f"{compactions.value(reason='window'):.0f} serials were "
          f"compacted away")
    print(f"Cache Reset answers (reason=compacted): {before:.0f} -> "
          f"{resets.value(reason='compacted'):.0f}; laggard resynced to "
          f"serial {laggard.serial} with {laggard.vrp_count} VRPs\n")

    print("== a misbehaving router sends malformed bytes ==")
    bad_pipe = DuplexPipe()
    server.attach(bad_pipe)
    sessions_before = server.session_count
    bad_pipe.to_cache.send(b"\x99\x00\x00\x07junk!")
    server.process()
    errors = registry.get("repro_rtr_errors_total")
    print(f"sessions {sessions_before} -> {server.session_count} "
          f"(Error Report sent, session dropped; decode errors: "
          f"{errors.value(kind='decode'):.0f})")
    print(f"surviving sessions unaffected: laggard still "
          f"{laggard.state.value} at serial {laggard.serial}")


def cmd_profile(args) -> None:
    from .profiling import profile_refresh

    report = profile_refresh(
        _scale(args, "small"),
        seed=_seed(args, 21),
        top=args.top,
    )
    print(report.render())
    print("\n=> counts are pinned in benchmarks/test_bench_scale.py; this "
          "table is the\n   investigation view (tools/profile_refresh.py "
          "writes it as JSON).")


def cmd_sideeffects(_args) -> None:
    from .core import demonstrate_all

    print("The seven side effects, demonstrated\n")
    for report in demonstrate_all():
        print(report.render())
        print()


def cmd_all(args) -> None:
    for name, command in _COMMANDS.items():
        if name == "all":
            continue
        print("=" * 70)
        print(f"== {name}")
        print("=" * 70)
        command(args)
        print()


_COMMANDS: dict[str, Callable] = {
    "fig2": cmd_fig2,
    "fig3": cmd_fig3,
    "fig5": cmd_fig5,
    "tab4": cmd_tab4,
    "tab6": cmd_tab6,
    "se6": cmd_se6,
    "se7": cmd_se7,
    "monitor": cmd_monitor,
    "granularity": cmd_granularity,
    "sideeffects": cmd_sideeffects,
    "resilience": cmd_resilience,
    "perf": cmd_perf,
    "refresh": cmd_refresh,
    "chaos": cmd_chaos,
    "stalloris": cmd_stalloris,
    "api": cmd_api,
    "rtr": cmd_rtr,
    "profile": cmd_profile,
    "all": cmd_all,
}


# Command-specific flags: (flag, the commands whose handlers read it,
# argparse spec).  build_parser attaches each row to those commands and
# to 'all', which runs every handler with one namespace.
_OPTIONS: tuple[tuple[str, tuple[str, ...], dict], ...] = (
    ("--right", ("fig5",), dict(
        action="store_true",
        help="Figure 5 right panel (adds the /12-13 ROA)")),
    ("--policy", ("se7",), dict(
        choices=["drop-invalid", "depref-invalid"], default="drop-invalid",
        help="relying-party local policy")),
    ("--epochs", ("resilience", "perf"), dict(
        type=int, default=6,
        help="refresh epochs to run (stalled-authority or cold-vs-warm "
             "sweep)")),
    ("--top", ("profile",), dict(
        type=int, default=15,
        help="hotspot rows to print (ranked by self time)")),
    ("--cycles", ("chaos",), dict(
        type=int, default=20,
        help="refresh cycles to run in the chaos campaign")),
    ("--points", ("stalloris",), dict(
        type=int, default=8,
        help="stalled delegated publication points the attacker mints "
             "(the amplification factor)")),
    ("--attack-cycles", ("stalloris",), dict(
        type=int, default=5,
        help="attacked refresh cycles measured after the healthy warm-up")),
    ("--tiers", ("rtr",), dict(
        type=int, default=2,
        help="chained-cache tiers between the validating cache and the "
             "router fleet")),
    ("--fanout", ("rtr",), dict(
        type=int, default=2,
        help="downstream caches per cache in the chain")),
    ("--routers", ("rtr",), dict(
        type=int, default=3,
        help="router sessions attached to each deepest-tier cache")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    # The shared option trio: every subcommand accepts --json (telemetry
    # rendering), --seed, and --scale, resolved against per-command
    # pinned defaults by _seed()/_scale().
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--emit-metrics", action="store_true",
        help="append the rendered telemetry registry to the artifact",
    )
    common.add_argument(
        "--json", action="store_true",
        help="render the telemetry registry as JSON (implies --emit-metrics)",
    )
    common.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="reseed the command's randomness (fault plans, churn, "
             "generated deployments); commands pinned to the paper's "
             "fixtures regenerate the published artifact regardless",
    )
    common.add_argument(
        "--scale",
        choices=sorted(_REFRESH_SCALES) + list(_INTERNET_SCALE_NAMES),
        default=None,
        help="deployment size for commands that generate one (refresh, "
             "perf, api, rtr, profile): a hierarchical shape or a flat "
             "Internet-scale family member (internet-small = 10^4 ROAs); "
             "ignored by the paper-pinned fixtures",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subparsers.add_parser(
            name, parents=[common], help=f"run the {name} experiment",
        )
        for flag, commands, spec in _OPTIONS:
            if name == "all" or name in commands:
                sub.add_argument(flag, **spec)
    return parser


def _emit_metrics(as_json: bool) -> None:
    """Append the default registry (everything the command touched)."""
    from .telemetry import default_registry

    registry = default_registry()
    print()
    print("=" * 70)
    print("== telemetry")
    print("=" * 70)
    if as_json:
        print(registry.render_json(indent=2))
    else:
        print(registry.render_text(), end="")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
        if args.json:
            args.emit_metrics = True
        if args.emit_metrics:
            _emit_metrics(args.json)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not an error.
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
