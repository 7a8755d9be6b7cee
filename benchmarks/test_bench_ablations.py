"""Ablations: the design choices DESIGN.md calls out, toggled one by one.

1. **Countermeasures vs the whack**: plain relying party, Suspenders,
   local pin, mirrors — does the target's route survive a stealthy whack?
2. **Manifest strictness under corruption**: loose keeps 7/8 ROAs, strict
   throws away the whole point.
3. **Cache policy under outage**: keep-stale rides it out, drop-stale
   loses the world.
4. **Table 6 across random topologies**: the tradeoff is not an artifact
   of the hand-built example.
"""

import random

from conftest import write_artifact

from repro.bgp import LocalPolicy, TopologyConfig, generate_topology
from repro.core import TradeoffScenario, execute_whack, plan_whack, run_tradeoff
from repro.modelgen import build_figure2
from repro.repository import FaultInjector, FaultKind, Fetcher
from repro.rp import (
    LocalOverrides,
    RelyingParty,
    Route,
    RouteValidity,
    SuspendersRelyingParty,
    classify_with_overrides,
)
from repro.simtime import HOUR


def make_rp(world, **kwargs):
    fetcher = Fetcher(world.registry, world.clock,
                      faults=kwargs.pop("faults", None))
    return RelyingParty(world.trust_anchors, fetcher, **kwargs)


def test_ablation_countermeasures_vs_whack(benchmark):
    """Which defenses keep (63.174.16.0/20, AS 17054) alive post-whack?"""

    def run():
        results = {}

        # baseline: plain RP
        world = build_figure2()
        rp = make_rp(world)
        rp.refresh()
        execute_whack(plan_whack(world.sprint, world.target20,
                                 world.continental))
        world.clock.advance(HOUR)
        rp.refresh()
        results["plain"] = rp.classify_parts("63.174.16.0/20", 17054)

        # Suspenders
        world = build_figure2()
        srp = SuspendersRelyingParty(make_rp(world), grace_seconds=24 * HOUR)
        srp.refresh()
        execute_whack(plan_whack(world.sprint, world.target20,
                                 world.continental))
        world.clock.advance(HOUR)
        srp.refresh()
        results["suspenders"] = srp.classify_parts("63.174.16.0/20", 17054)

        # Local pin
        world = build_figure2()
        rp = make_rp(world)
        rp.refresh()
        execute_whack(plan_whack(world.sprint, world.target20,
                                 world.continental))
        world.clock.advance(HOUR)
        rp.refresh()
        overrides = LocalOverrides().pin("63.174.16.0/20", 17054)
        results["local-pin"] = classify_with_overrides(
            Route.parse("63.174.16.0/20", 17054), rp.vrps, overrides
        )
        return results

    results = benchmark(run)
    # The whack removes the only covering ROA, so plain RPs see unknown;
    # both countermeasures restore full validity.
    assert results["plain"] is RouteValidity.UNKNOWN
    assert results["suspenders"] is RouteValidity.VALID
    assert results["local-pin"] is RouteValidity.VALID

    lines = ["countermeasure   route state after stealthy whack"]
    for name, state in results.items():
        lines.append(f"{name:<16} {state.value}")
    lines.append("")
    lines.append("(mirrors address delivery faults, not authorized whacks —")
    lines.append(" see test_ablation_mirrors_vs_corruption)")
    write_artifact("ablation_countermeasures.txt", "\n".join(lines))


def test_ablation_mirrors_vs_corruption(benchmark):
    """Mirrors defend availability (corruption/outage), not authority abuse."""

    def run():
        results = {}
        for mirrored in (False, True):
            world = build_figure2()
            if mirrored:
                server = world.registry.by_host("sprint.example")
                uri = "rsync://sprint.example/mirror/continental/"
                world.continental.enable_mirror(uri, server.mount(uri))
            faults = FaultInjector(seed=2)
            faults.schedule(
                FaultKind.CORRUPT, "rsync://continental.example/repo/",
                file_name=world.target20_name,
            )
            rp = make_rp(world, faults=faults)
            rp.refresh()
            results[mirrored] = len(rp.vrps)
        return results

    results = benchmark(run)
    assert results[False] == 7   # corrupted ROA lost
    assert results[True] == 8    # clean mirror copy outvotes it
    write_artifact(
        "ablation_mirrors.txt",
        "corrupted primary, no mirror : 7/8 VRPs survive\n"
        "corrupted primary, mirror    : 8/8 VRPs survive\n",
    )


def test_ablation_manifest_strictness(benchmark):
    def run():
        results = {}
        for strict in (False, True):
            world = build_figure2()
            faults = FaultInjector(seed=1)
            faults.schedule(
                FaultKind.CORRUPT, "rsync://continental.example/repo/",
                file_name=world.target20_name,
            )
            rp = make_rp(world, faults=faults, strict_manifests=strict)
            rp.refresh()
            results["strict" if strict else "loose"] = len(rp.vrps)
        return results

    results = benchmark(run)
    assert results["loose"] == 7
    assert results["strict"] == 3  # the whole Continental point discarded
    write_artifact(
        "ablation_manifests.txt",
        "one corrupted file at Continental's point:\n"
        f"  loose manifests : {results['loose']}/8 VRPs survive\n"
        f"  strict manifests: {results['strict']}/8 VRPs survive "
        "(whole point discarded)\n",
    )


def test_ablation_cache_policy(benchmark):
    def run():
        results = {}
        for keep in (True, False):
            world = build_figure2()
            reachable_flag = {"ok": True}
            fetcher = Fetcher(
                world.registry, world.clock,
                reachability=lambda loc: reachable_flag["ok"],
            )
            rp = RelyingParty(world.trust_anchors, fetcher,
                              keep_stale=keep)
            rp.refresh()
            reachable_flag["ok"] = False
            world.clock.advance(HOUR)
            rp.refresh()
            results["keep-stale" if keep else "drop-stale"] = len(rp.vrps)
        return results

    results = benchmark(run)
    assert results["keep-stale"] == 8
    assert results["drop-stale"] == 0
    write_artifact(
        "ablation_cache.txt",
        "total delivery outage, one refresh later:\n"
        f"  keep-stale cache: {results['keep-stale']}/8 VRPs survive\n"
        f"  drop-stale cache: {results['drop-stale']}/8 VRPs survive\n",
    )


def test_ablation_tab6_random_topologies(benchmark):
    """The Table 6 opposition holds across random Internets."""

    def run():
        rows = []
        for seed in range(5):
            topo = generate_topology(TopologyConfig(
                seed=seed, tier1_count=3, mid_count=8, stub_count=20
            ))
            rng = random.Random(seed)
            victim, attacker = topo.random_stub_pair(rng)
            scenario = TradeoffScenario.build(
                topo.graph, "10.4.0.0/16", int(victim), int(attacker),
                covering_prefix="10.0.0.0/8",
                covering_origin=int(topo.mid[0]),
            )
            rows.append((seed, run_tradeoff(scenario)))
        return rows

    rows = benchmark(run)
    for seed, table in rows:
        drop_bgp = table.cell(LocalPolicy.DROP_INVALID, "routing-attack")
        drop_rpki = table.cell(LocalPolicy.DROP_INVALID, "rpki-manipulation")
        depref_bgp = table.cell(LocalPolicy.DEPREF_INVALID, "routing-attack")
        depref_rpki = table.cell(LocalPolicy.DEPREF_INVALID,
                                 "rpki-manipulation")
        assert drop_bgp.prefix_reachable, f"seed {seed}"
        assert drop_rpki.reachable_fraction == 0.0, f"seed {seed}"
        assert depref_bgp.hijacked_fraction > 0.3, f"seed {seed}"
        assert depref_rpki.prefix_reachable, f"seed {seed}"

    lines = ["Table 6 verdicts across 5 random topologies (all identical):",
             ""]
    lines.append(rows[0][1].render())
    write_artifact("ablation_tab6_sweep.txt", "\n".join(lines))
