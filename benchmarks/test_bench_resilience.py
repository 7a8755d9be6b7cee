"""Resilience under a stalling authority: bounded cost, observable stall.

The claim (Stalloris, adapted to the paper's Section 6 setting): a
publication point that *stalls* instead of failing costs an unprotected
relying party its entire per-attempt timeout on every refresh — cost
linear in the number of refreshes — while a fetcher with deadlines,
capped backoff, and a per-host circuit breaker pays at most
``resilience.WORST_CASE_SECONDS`` per refresh, and after the breaker
opens almost nothing.  The relying party meanwhile serves stale cache
inside its grace window, then visibly downgrades (VRPs drop) when the
window expires, and the monitor's stall detector pages on the sustained
pattern while a transient flaky blip stays below the alert threshold.

Everything runs on the simulated clock with fixed seeds, so the second
half of the file asserts byte-identical artifacts and telemetry across
two runs of the same scenario.
"""

from conftest import write_artifact

from repro.experiments import CONTINENTAL_POINT, ETB_POINT, stalled_authority
from repro.monitor.stall import ALERT_THRESHOLD
from repro.repository import BreakerState, FaultKind
from repro.repository.resilience import (
    ATTEMPT_DEADLINE,
    MAX_ATTEMPTS,
    WORST_CASE_SECONDS,
)
from repro.telemetry import MetricsRegistry

EPOCHS = 6


# ---------------------------------------------------------------------------
# the paper-claim assertions
# ---------------------------------------------------------------------------


def test_unprotected_cost_grows_linearly():
    run = stalled_authority(resilient=False)
    costs, rp, fetcher = run.costs, run.rp, run.fetcher
    # Every epoch burns the full single-attempt timeout on the stall:
    # cumulative cost is exactly linear in the number of refreshes.
    assert costs == [fetcher.attempt_timeout] * EPOCHS
    assert sum(costs) == EPOCHS * fetcher.attempt_timeout
    # keep_stale with no grace window: the RP never notices, VRPs intact.
    assert len(rp.vrps) == 8


def test_resilient_cost_bounded_by_deadline_times_retry_cap():
    run = stalled_authority(resilient=True)
    costs, rp, fetcher = run.costs, run.rp, run.fetcher
    bound = WORST_CASE_SECONDS
    # Acceptance criterion: refresh cost under a stalling authority is
    # bounded by deadline x retry cap (+ capped jittered backoff).
    assert all(cost <= bound for cost in costs), (costs, bound)
    assert bound < 2 * MAX_ATTEMPTS * ATTEMPT_DEADLINE
    # Once the breaker opens the per-refresh cost collapses to (at most)
    # one half-open probe; total stays far below the unprotected line.
    breaker = fetcher.breakers["continental.example"]
    assert breaker.state is BreakerState.OPEN
    assert sum(costs) < EPOCHS * fetcher.attempt_timeout / 10
    # The grace window expired mid-scenario: the Stalloris downgrade is
    # observable as lost VRPs (continental's five ROAs gone).
    assert len(rp.vrps) == 3


def test_stale_serve_then_expiry_is_observable():
    metrics = MetricsRegistry()
    report = stalled_authority(resilient=True, metrics=metrics).rp.last_run
    assert report is not None
    assert metrics.get("repro_cache_stale_serves_total").value() > 0
    assert metrics.get("repro_cache_expired_drops_total").value() > 0
    assert metrics.get("repro_fetch_deadline_misses_total").value() > 0
    assert metrics.get("repro_fetch_retries_total").value() > 0
    assert metrics.get(
        "repro_breaker_transitions_total"
    ).value(state="open") >= 1


def test_monitor_flags_stall_but_not_background_churn():
    run = stalled_authority(resilient=True)
    detector, alert_log = run.detector, run.alert_log
    threshold = ALERT_THRESHOLD
    # Quiet until the streak reaches the threshold...
    for epoch_alerts in alert_log[: threshold - 1]:
        assert epoch_alerts == []
    # ...then pages on the stalled point every epoch the stall persists.
    for epoch_alerts in alert_log[threshold - 1:]:
        assert [a.point_uri for a in epoch_alerts] == [CONTINENTAL_POINT]
        assert all(a.is_suspicious for a in epoch_alerts)
    # The one-off flaky fetch never accumulates a streak.
    assert detector.stalled_points() == [CONTINENTAL_POINT]
    assert detector.consecutive.get(ETB_POINT, 0) < threshold


# ---------------------------------------------------------------------------
# determinism: same seed => byte-identical artifacts and telemetry
# ---------------------------------------------------------------------------


def test_scenario_is_deterministic(artifacts_dir):
    registries = MetricsRegistry(), MetricsRegistry()
    first, second = (
        stalled_authority(resilient=True, metrics=m) for m in registries
    )
    assert first.render() == second.render()  # artifact text
    assert first.costs == second.costs
    assert (
        registries[0].render_text() == registries[1].render_text()
    )  # full telemetry registry, trace trees included
    write_artifact("resilience_stall.txt", first.render())


def test_fault_sequence_is_seed_deterministic():
    runs = []
    for _ in range(2):
        fetcher = stalled_authority(resilient=True, seed=23).fetcher
        runs.append(list(fetcher.faults.applied))
    assert runs[0] == runs[1]
    # A different seed may reorder the FLAKY coin flips — but the
    # scheduled stall itself is exact, so the stall events must persist.
    assert any(kind is FaultKind.STALL for _, _, kind in runs[0])


# ---------------------------------------------------------------------------
# timing (pytest-benchmark): the resilient refresh-under-stall hot path
# ---------------------------------------------------------------------------


def test_bench_resilient_refresh_under_stall(benchmark):
    run = benchmark(stalled_authority, resilient=True)
    assert len(run.costs) == EPOCHS
