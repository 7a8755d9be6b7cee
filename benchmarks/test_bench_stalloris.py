"""Experiment ``stalloris``: the slowdown attack, and what the scheduler buys.

Three claims, pinned in ``BENCH_stalloris.json``:

1. **The attack works on a budgeted fetcher.**  One authority amplifies
   its delegation tree into 8 stalled publication points; a relying
   party with only a global fetch budget burns the whole budget inside
   the attacker's subtree every cycle, skips the victims, and their
   cached data ages one full cycle per cycle — crossing the stale-grace
   downgrade threshold (the *time-to-stale* of the Stalloris paper)
   while still serving the stale VRPs as if nothing happened.

2. **The scheduler bounds the damage.**  The per-authority deadline
   scheduler defers the attacker's slow children instead, so unrelated
   authorities' staleness stays pinned under the fairness bound — the
   victims never downgrade.

3. **Defense is nearly free.**  On a clean ``internet-small`` refresh
   (10^4 ROAs, no faults) the scheduled relying party stays within
   **1.10x** of the unscheduled one in CPU time (the median ratio of
   five alternating pairs), with byte-identical VRP output.

Plus the acceptance sweep: a 200-cycle seeded chaos campaign mixing
AMPLIFY with the full timing + Byzantine menu completes with zero
safety / equivalence / bounded-interference / no-crash violations.
"""

import json
import statistics
import time

from conftest import write_artifact

from repro.chaos import (
    FAULT_MENU,
    CampaignConfig,
    StallorisConfig,
    measure_stalloris,
    run_campaign,
)
from repro.modelgen import INTERNET_SCALES, build_deployment
from repro.repository import Fetcher
from repro.rp import RelyingParty
from repro.telemetry import MetricsRegistry

CONFIG = StallorisConfig()          # 8 amplified points, 5 attack cycles
OVERHEAD_BOUND = 1.10
OVERHEAD_PAIRS = 5
CAMPAIGN_CYCLES = 200

_STATE: dict[str, object] = {}


def _report():
    if "report" not in _STATE:
        _STATE["report"] = measure_stalloris(CONFIG)
    return _STATE["report"]


def test_unscheduled_fetcher_downgrades_to_stale():
    report = _report()
    assert report.amplifier_points == CONFIG.amplification_points
    run = report.run(scheduled=False)
    # The global budget is spent inside the attacker's subtree: the
    # victims are skipped wholesale, every cycle.
    assert all(skipped > 0 for skipped in run.skipped)
    # Their cached data ages one full attack cycle per cycle...
    ages = run.victim_age
    step = CONFIG.gap_seconds + 2 * CONFIG.attempt_timeout
    assert all(b - a == step for a, b in zip(ages, ages[1:]))
    # ...and crosses the downgrade threshold: the attack lands.
    assert run.time_to_stale is not None
    assert ages[-1] > CONFIG.stale_grace
    _STATE["budget"] = run


def test_scheduled_fetcher_holds_the_fairness_bound():
    run = _report().run(scheduled=True)
    # The attacker's children are deferred, not waited on...
    assert max(run.deferred) > 0
    # ...so unrelated authorities never age past the stale grace: no
    # time-to-stale downgrade.
    assert run.time_to_stale is None
    assert max(run.victim_age) <= CONFIG.stale_grace
    _STATE["scheduled"] = run


def test_scheduler_overhead_on_clean_refresh():
    world = build_deployment(INTERNET_SCALES["internet-small"])

    def timed_refresh(scheduled):
        fetcher = Fetcher(world.registry, world.clock,
                          metrics=MetricsRegistry())
        rp = RelyingParty(world.trust_anchors, fetcher,
                          scheduled=scheduled, metrics=fetcher.metrics)
        start = time.process_time()
        report = rp.refresh()
        return rp, report, time.process_time() - start

    timed_refresh(False)  # warm-up: page in code paths, steady-state CPU

    # Alternating pairs on CPU time, judged by their median ratio: one
    # wall-clock sample per side read scheduling noise, not the scheduler.
    base_times, sched_times, ratios = [], [], []
    for pair in range(OVERHEAD_PAIRS):
        order = (False, True) if pair % 2 == 0 else (True, False)
        runs = {scheduled: timed_refresh(scheduled) for scheduled in order}
        base_rp, base_report, base_seconds = runs[False]
        sched_rp, sched_report, sched_seconds = runs[True]
        # Identical output: a clean world gives the scheduler nothing to do.
        assert sched_report.deferred == []
        assert sched_rp.vrps.as_frozenset() == base_rp.vrps.as_frozenset()
        assert [f.uri for f in sched_report.fetches] == \
            [f.uri for f in base_report.fetches]
        base_times.append(base_seconds)
        sched_times.append(sched_seconds)
        ratios.append(sched_seconds / base_seconds)

    ratio = statistics.median(ratios)
    assert ratio <= OVERHEAD_BOUND, (
        f"scheduler overhead {ratio:.3f}x (median of {OVERHEAD_PAIRS} "
        f"pairs, {sorted(round(r, 3) for r in ratios)}) on a clean "
        f"internet-small refresh"
    )
    _STATE["overhead"] = {
        "scale": "internet-small",
        "roas": world.roa_count(),
        "pairs": OVERHEAD_PAIRS,
        "unscheduled_seconds": round(statistics.median(base_times), 4),
        "scheduled_seconds": round(statistics.median(sched_times), 4),
        "ratio": round(ratio, 3),
    }


def test_200_cycle_amplified_campaign_acceptance():
    config = CampaignConfig(seed=7, cycles=CAMPAIGN_CYCLES,
                            amplification_points=6)
    result = run_campaign(config)
    assert result.violation is None, str(result.violation)
    assert result.cycles_run == CAMPAIGN_CYCLES
    # The seeded plan exercises the whole menu, AMPLIFY included.
    assert {fault.kind for fault in result.plan.faults} == set(FAULT_MENU)
    assert result.faults_fired > 0
    assert result.interference_worst <= result.interference_bound
    _STATE["campaign"] = {
        "cycles": result.cycles_run,
        "amplification_points": 6,
        "faults_planned": len(result.plan),
        "faults_fired": result.faults_fired,
        "interference_worst": result.interference_worst,
        "interference_bound": result.interference_bound,
        "clean_vrps": result.clean_vrps,
        "violation": None,
    }


def test_write_artifact():
    report = _report()
    budget = _STATE["budget"]
    scheduled = _STATE["scheduled"]
    overhead = _STATE["overhead"]
    campaign = _STATE["campaign"]
    write_artifact("BENCH_stalloris.json", json.dumps({
        "experiment": "stalloris",
        "pins": {
            # (a) the unscheduled fetcher downgrades: final victim-point
            # staleness exceeds the grace window (time-to-stale is real).
            "budget_final_victim_age_seconds": {
                "measured": budget.victim_age[-1],
                "bound": CONFIG.stale_grace, "op": ">=",
            },
            # (b) the scheduled fetcher keeps unrelated authorities under
            # the fairness bound for the whole attack.
            "scheduled_worst_victim_age_seconds": {
                "measured": max(scheduled.victim_age),
                "bound": CONFIG.stale_grace, "op": "<=",
            },
            # (c) defense costs ≤10% on a clean internet-small refresh.
            "scheduler_overhead_ratio": {
                "measured": overhead["ratio"],
                "bound": OVERHEAD_BOUND, "op": "<=",
            },
            "campaign_violations": {
                "measured": 0 if campaign["violation"] is None else 1,
                "bound": 0, "op": "==",
            },
        },
        "attack": {
            "amplifier_host": report.amplifier_host,
            "amplifier_points": report.amplifier_points,
            "cycles": CONFIG.cycles,
            "gap_seconds": CONFIG.gap_seconds,
            "attempt_timeout": CONFIG.attempt_timeout,
            "fetch_budget": CONFIG.fetch_budget,
            "stale_grace": CONFIG.stale_grace,
            "budget_time_to_stale_seconds": budget.time_to_stale,
            "scheduled_time_to_stale_seconds": scheduled.time_to_stale,
            "runs": [run.as_dict() for run in report.runs],
        },
        "overhead": overhead,
        "campaign": campaign,
    }, indent=2) + "\n")
