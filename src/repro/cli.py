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
    python -m repro profile         # a timed refresh's stage table
    python -m repro all             # everything, in order

Every command is deterministic (fixed seeds) and prints a self-contained
text artifact.  The paper commands (fig2 ... resilience) print the
``render()`` of one :mod:`repro.experiments` function — the call whose
output ``benchmarks/test_bench_*.py`` commits under
``benchmarks/artifacts/`` — so their stdout contains that file verbatim;
the system walkthroughs (perf ... profile) are implemented here.
``tools/check_docs.py`` keeps the list above and ``_COMMANDS`` in step.

Every command accepts the same option trio: ``--emit-metrics`` /
``--json`` appends the rendered telemetry registry (docs/telemetry.md),
``--seed N`` reseeds whatever randomness the command consumes, and
``--scale`` sizes its generated deployment (either family of
:func:`repro.modelgen.resolve_scale`).  Commands over the paper's
hand-built fixtures accept ``--scale`` for uniformity and ignore it.
"""

from __future__ import annotations

import argparse
from typing import Callable

from . import experiments
from .api import ApiConfig, QueryService, RateLimitConfig
from .chaos import (
    CampaignConfig, StallorisConfig, measure_stalloris, run_campaign,
    shrink_plan,
)
from .jurisdiction import render_table4
from .modelgen import (
    HIERARCHICAL_SCALES, INTERNET_SCALES, DeploymentConfig, build_deployment,
    resolve_scale,
)
from .profiling import profile_refresh
from .repository import Fetcher, resilience
from .repository.scheduler import AUTHORITY_BUDGET
from .rp import RelyingParty
from .rtr import (
    CacheChain, DuplexPipe, RouterState, RtrCacheServer, RtrRouterClient,
)
from .simtime import HOUR
from .telemetry import default_registry
from .telemetry.render import registry_from_dict

__all__ = ["main"]


# ---------------------------------------------------------------------------
# shared construction
# ---------------------------------------------------------------------------


def _seed(args, default: int) -> int:
    """The command's seed: ``--seed`` when given, its pinned default else."""
    return default if args.seed is None else args.seed


def _scale(args, default: str) -> str:
    """The command's deployment scale, same resolution as :func:`_seed`."""
    return default if args.scale is None else args.scale


def _rsa_verifies(registry) -> float:
    """RSA verifications *registry* has counted so far, either outcome."""
    verify = registry.get("repro_crypto_verify_total")
    return verify.value(outcome="accepted") + verify.value(outcome="rejected")


def _build_rp(world):
    """One relying party over *world*, reporting to the default registry
    (what ``--emit-metrics`` renders)."""
    return RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock)
    )


def _generated_world(args, default_scale: str, default_seed: int):
    """``--scale``/``--seed`` resolved to a generated deployment (either
    family, see :func:`repro.modelgen.resolve_scale`) and a relying party
    over it.  Returns ``(scale_name, config, world, rp)``."""
    scale = _scale(args, default_scale)
    config = resolve_scale(scale, _seed(args, default_seed))
    world = build_deployment(config)
    return scale, config, world, _build_rp(world)


# ---------------------------------------------------------------------------
# paper commands: a title, one repro.experiments result, a line of commentary
# ---------------------------------------------------------------------------


def cmd_fig2(_args) -> None:
    model = experiments.figure2()
    print(model.render())
    print(f"\nrelying party: {len(model.rp.vrps)} VRPs, "
          f"{len(model.report.run.errors())} errors")


def cmd_fig3(_args) -> None:
    print("Revoking Continental Broadband's RC would whack "
          f"{len(experiments.revocation_collateral())} additional ROAs.\n")
    for title, target in (("grandchild target (Side Effect 3)", 20),
                          ("overlapped target (Figure 3)", 22)):
        _world, plan = experiments.figure3(target)
        print(f"== {title} ==")
        print(plan.describe())
        print()


def cmd_fig5(args) -> None:
    if args.right:
        print("Figure 5 (right): with ROA (63.160.0.0/12-13, AS 1239)\n")
    else:
        print("Figure 5 (left): the Figure 2 ROAs\n")
    print(experiments.figure5(args.right).render())


def cmd_tab4(_args) -> None:
    _world, findings = experiments.table4()
    print("Table 4 — RCs & the countries they cover outside the\n"
          "jurisdiction of their parent RIR\n")
    print(render_table4(findings))


def cmd_tab6(_args) -> None:
    print("Table 6 — impact of different local policies\n")
    print(experiments.table6().render())


def cmd_se6(_args) -> None:
    table = experiments.side_effect6()
    print(table.render())
    covered = sum(i.becomes_invalid for i in table.impacts.values())
    print(f"\n=> {covered} of {len(table.impacts)} routes end up invalid, "
          "not unknown! — a covering ROA\n   outlives the missing one.")


def cmd_se7(args) -> None:
    run = experiments.side_effect7(args.policy, seed=_seed(args, 7))
    print(run.render())
    print("\n(one corrupted fetch of Continental's self-hosted ROA, "
          "injected after epoch 0)")
    healed = run.loop.can_reach("63.174.23.0", 17054)
    print("=> " + ("recovered" if healed else
                   "PERSISTENT FAILURE (manual intervention required)"))


def cmd_monitor(args) -> None:
    seed = _seed(args, 11)
    print("Whack detection amid churn (10 epochs; whacks hidden at "
          "epochs 3 and 7)\n")
    for title, sloppy_prob in (
        ("disciplined operators: every retirement on the CRL", 0.0),
        ("sloppy operators: 80% of retirements skip the CRL", 0.8),
    ):
        print(f"== {title}")
        experiment = experiments.monitor_detection(sloppy_prob, seed)
        print(experiment.score().render())
        print()
    print("=> the whacks are caught either way; what sloppy churn costs is\n"
          "   precision — a benign deletion without a CRL entry raises the\n"
          "   same stealthy-deletion alarm as an attack.")


def cmd_granularity(_args) -> None:
    print(experiments.granularity().render())


def cmd_resilience(args) -> None:
    print("Stalled authority (Stalloris-style) vs. the fetch pipeline\n")
    print(f"stall target: {experiments.CONTINENTAL_POINT} "
          "(persistent, from epoch 1)")
    print("benign churn: one transient flaky fetch of "
          f"{experiments.ETB_POINT} at epoch 1\n")
    for resilient in (False, True):
        run = experiments.stalled_authority(
            resilient, args.epochs, _seed(args, 17))
        if resilient:
            print(f"== resilient fetcher ({resilience.ATTEMPT_DEADLINE} s "
                  f"deadline x {resilience.MAX_ATTEMPTS} attempts, per-host "
                  "breaker, 4 h stale grace)")
            bound = (f"bounded by worst-case {resilience.WORST_CASE_SECONDS} "
                     "s/refresh")
        else:
            print("== unprotected fetcher (single attempt, "
                  f"{run.fetcher.attempt_timeout} s timeout, "
                  "stale served forever)")
            bound = "grows linearly with the stall"
        print(run.render(), end="")
        print(f"total simulated seconds fetching: {sum(run.costs)} "
              f"({bound})\n")
    print("=> the unprotected RP burns its whole refresh interval on the\n"
          "   stalled point every cycle; the resilient RP caps the cost,\n"
          "   opens the breaker, serves stale data through the grace window,\n"
          "   and the monitor pages on the sustained stall — after the grace\n"
          "   window the whacked point's routes downgrade to unknown, the\n"
          "   observable Stalloris endpoint.")


# ---------------------------------------------------------------------------
# system walkthroughs: implemented here, over a generated deployment
# ---------------------------------------------------------------------------


def cmd_refresh(args) -> None:
    scale, config, world, rp = _generated_world(args, "medium", 21)
    registry = rp.metrics
    world.clock.advance(HOUR)
    report = rp.refresh()
    print(f"One refresh over the {scale!r} deployment\n")
    print(f"deployment: {world.roa_count()} ROAs across "
          f"{len(world.authorities())} authorities "
          f"(suballocation depth {config.suballocation_depth})")
    print(f"discovery rounds: {report.rounds}")
    print(f"RSA verifications: {int(_rsa_verifies(registry))}")
    print(f"validated CAs: {len(report.run.validated_cas)}  "
          f"ROAs: {report.run.roa_count}  "
          f"VRPs: {len(report.vrps)}  "
          f"errors: {len(report.run.errors())}")


def cmd_perf(args) -> None:
    # --scale swaps in the shared deployment shapes (either family); the
    # default keeps the historical perf deployment (6 ISPs/RIR, 2
    # customers each).
    if args.scale:
        config = resolve_scale(args.scale, _seed(args, 21))
    else:
        config = DeploymentConfig(
            seed=_seed(args, 21), isps_per_rir=6, customers_per_isp=2,
        )
    world = build_deployment(config)
    rp = _build_rp(world)
    registry = rp.metrics

    memo = registry.get("repro_incremental_verify_memo_total")
    points = registry.get("repro_incremental_points_total")

    def counts() -> tuple[float, ...]:
        """(verifies, memo hits, memo misses, points reused, validated)"""
        return (_rsa_verifies(registry),
                memo.value(result="hit"), memo.value(result="miss"),
                points.value(outcome="reused"),
                points.value(outcome="validated"))

    epochs = args.epochs
    churn_epoch = epochs // 2
    churned_ca = next(ca for ca in world.authorities() if ca.issued_roas)
    roa_name = next(iter(churned_ca.issued_roas))

    print("Incremental validation: cold start, then steady-state refreshes\n")
    print(f"deployment: {world.roa_count()} ROAs across "
          f"{len(world.authorities())} authorities; one ROA renewed at "
          f"epoch {churn_epoch}\n")
    print("epoch  kind   RSA-verifies  memo-hit-rate  "
          "points reused/validated  VRPs")
    cold_verifies = warm_verifies = 0
    for epoch in range(epochs):
        kind = "cold"
        if epoch > 0:
            world.clock.advance(HOUR)
            kind = "warm"
        if epoch == churn_epoch:
            churned_ca.renew_roa(roa_name)
            kind = "churn"
        before = counts()
        report = rp.refresh()
        verifies, hits, misses, reused, validated = (
            int(after - was) for after, was in zip(counts(), before))
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
        if epoch == 0:
            cold_verifies = verifies
        elif epoch == 1:
            warm_verifies = verifies
        print(f"{epoch:>5}  {kind:<5}  {verifies:>12}  "
              f"{hit_rate:>12.1%}  {reused:>13}/{validated}"
              f"  {len(report.vrps):>4}")
    print(f"\n=> zero-churn warm refresh: {warm_verifies} RSA "
          f"verifications (cold start needed {cold_verifies});\n"
          "   renewing one ROA revalidates one publication point — cost\n"
          "   tracks churn, not repository size (docs/performance.md).")


def cmd_chaos(args) -> None:
    config = CampaignConfig(seed=_seed(args, 7), cycles=args.cycles)
    print(f"Chaos campaign: seed {config.seed}, {config.cycles} cycles — "
          "a faulted relying party\nvs its cold twin, a scheduled "
          "RP, plus an RTR router, under one\nseeded fault plan\n")
    result = run_campaign(config)
    # The campaign counts on a private registry (the shrink re-runs must
    # not add up); publish the main run's repro_chaos_* totals where
    # --emit-metrics looks.
    registry_from_dict(default_registry(), result.metrics.to_dict())
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
    config = StallorisConfig(
        seed=_seed(args, 1),
        amplification_points=args.points,
        cycles=args.attack_cycles,
    )
    print("Stalloris-grade slowdown: one authority's delegation tree turns "
          "into\n"
          f"{config.amplification_points} stalled publication points; "
          "measured with the global\n"
          f"fetch budget ({config.fetch_budget}s) and with the per-authority "
          f"scheduler ({AUTHORITY_BUDGET}s/host)\n")
    report = measure_stalloris(config)
    print(report.render())
    budget = report.run(False)
    sched = report.run(True)
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
    scale, config, world, rp = _generated_world(args, "small", 7)
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
    scale, config, world, rp = _generated_world(args, "small", 7)
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
    print("The seven side effects, demonstrated\n")
    for report in experiments.demonstrate_all():
        print(report.render())
        print()


def cmd_all(args) -> None:
    for name, _help, handler in _COMMANDS:
        if name == "all":
            continue
        print("=" * 70)
        print(f"== {name}")
        print("=" * 70)
        handler(args)
        print()


# The command table, in `all` order: (name, one-line help, handler).  The
# parser, `all` and the docs lint (tools/check_docs.py, by AST) read it.
_COMMANDS: tuple[tuple[str, str, Callable], ...] = (
    ("fig2", "the model RPKI of Figure 2", cmd_fig2),
    ("fig3", "both whacking walkthroughs", cmd_fig3),
    ("fig5", "route-validity matrices", cmd_fig5),
    ("tab4", "the cross-border audit", cmd_tab4),
    ("tab6", "the policy-tradeoff table", cmd_tab6),
    ("se6", "missing-ROA impact analysis", cmd_se6),
    ("se7", "transient fault, persistent failure: the closed loop", cmd_se7),
    ("monitor", "whacks-in-churn detection scores", cmd_monitor),
    ("granularity", "Section 7 takedown-granularity sweep", cmd_granularity),
    ("sideeffects", "all seven side effects, demonstrated", cmd_sideeffects),
    ("resilience", "stalled authority vs. resilient fetcher", cmd_resilience),
    ("perf", "cold vs. warm incremental revalidation", cmd_perf),
    ("refresh", "one refresh cycle over a generated world", cmd_refresh),
    ("chaos", "Byzantine fault campaign + shrink demo", cmd_chaos),
    ("stalloris", "amplified slowdown vs. fetch scheduler", cmd_stalloris),
    ("api", "the origin-validation query plane", cmd_api),
    ("rtr", "router-fleet fan-out over chained caches", cmd_rtr),
    ("profile", "time a refresh, read its stage table", cmd_profile),
    ("all", "everything, in order", cmd_all),
)


# The flag table: (flag, the commands whose handlers read it — None for
# the trio every command accepts — and the argparse spec).  build_parser
# attaches each row to those commands and to 'all', which runs every
# handler with one namespace.
_OPTIONS: tuple[tuple[str, tuple[str, ...] | None, dict], ...] = (
    ("--emit-metrics", None, dict(
        action="store_true",
        help="append the rendered telemetry registry to the artifact")),
    ("--json", None, dict(
        action="store_true",
        help="render the telemetry registry as JSON (implies "
             "--emit-metrics)")),
    ("--seed", None, dict(
        type=int, default=None, metavar="N",
        help="reseed the command's randomness (fault plans, churn, "
             "generated deployments)")),
    ("--scale", None, dict(
        choices=[*HIERARCHICAL_SCALES, *INTERNET_SCALES], default=None,
        help="deployment size for commands that generate one (refresh, "
             "perf, api, rtr, profile): a hierarchical shape or a flat "
             "Internet-scale family member (internet-small = 10^4 ROAs); "
             "ignored by the paper's hand-built fixtures")),
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
        help="slowest publication points to list")),
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
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler in _COMMANDS:
        sub = subparsers.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        for flag, commands, spec in _OPTIONS:
            if commands is None or name == "all" or name in commands:
                sub.add_argument(flag, **spec)
    return parser


def _emit_metrics(as_json: bool) -> None:
    """Append the default registry (everything the command touched)."""
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
        args.handler(args)
        if args.emit_metrics or args.json:
            _emit_metrics(args.json)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not an error.
        return 0
    return 0

