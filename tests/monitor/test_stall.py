"""StallDetector: sustained degradation pages, background churn does not."""

import pytest

from repro.monitor import StallDetector
from repro.monitor.alerts import AlertKind
from repro.monitor.stall import (
    ALERT_THRESHOLD,
    AMPLIFICATION_THRESHOLD,
    DEGRADED_STATUSES,
)
from repro.repository import FetchResult, FetchStatus
from repro.telemetry import MetricsRegistry

URI = "rsync://continental.example/repo/"
OTHER = "rsync://sprint.example/repo/"


def ok(uri=URI):
    return FetchResult(uri, FetchStatus.OK, {"a.roa": b"x"})


def bad(uri=URI, status=FetchStatus.TIMEOUT):
    return FetchResult(uri, status)


def make():
    return StallDetector(metrics=MetricsRegistry())


def stalled(detector, *results):
    """Observe *results* for the epochs that bring a streak to the brink."""
    for _ in range(ALERT_THRESHOLD - 1):
        assert detector.observe(list(results)) == []


def test_streak_reaches_threshold_then_pages_every_epoch():
    assert ALERT_THRESHOLD == 3
    detector = make()
    assert detector.observe([bad()]) == []
    assert detector.observe([bad()]) == []
    for epoch in range(3):  # at and past the threshold: re-raised each epoch
        alerts = detector.observe([bad()])
        assert [a.kind for a in alerts] == [AlertKind.SUSTAINED_STALL]
        assert alerts[0].point_uri == URI
        assert alerts[0].is_suspicious and alerts[0].severity == "critical"
    assert detector.stalled_points() == [URI]


def test_success_resets_the_streak():
    detector = make()
    stalled(detector, bad())
    detector.observe([ok()])  # recovery
    stalled(detector, bad())  # streak restarted at 1
    assert detector.stalled_points() == []


def test_benign_churn_stays_below_threshold():
    detector = make()
    # Alternating weather: a point that fails every other epoch never
    # accumulates the consecutive streak that means "attack".
    for epoch in range(10):
        result = bad() if epoch % 2 else ok()
        assert detector.observe([result]) == []
    assert detector.stalled_points() == []


def test_every_degraded_status_counts():
    for status in DEGRADED_STATUSES:
        detector = make()
        stalled(detector, bad(status=status))
        alerts = detector.observe([bad(status=status)])
        assert len(alerts) == 1, status


def test_latest_result_per_point_wins():
    detector = make()
    stalled(detector, bad())
    # A retry loop can log several results for one point in one epoch;
    # only the final outcome counts.
    assert detector.observe([bad(), ok()]) == []
    stalled(detector, bad())
    assert len(detector.observe([ok(), bad()])) == 1


def test_points_tracked_independently():
    detector = make()
    stalled(detector, bad(URI), ok(OTHER))
    alerts = detector.observe([bad(URI), bad(OTHER)])
    assert [a.point_uri for a in alerts] == [URI]
    assert detector.consecutive[OTHER] == 1


def test_metrics_and_history():
    detector = make()
    stalled(detector, bad(URI), bad(OTHER))
    detector.observe([bad(URI), bad(OTHER)])
    detector.observe([ok(URI), bad(OTHER)])
    counter = detector.metrics.get("repro_monitor_alerts_total")
    assert counter.value(kind="sustained-stall") == 3
    gauge = detector.metrics.get("repro_monitor_stalled_points")
    assert gauge.value() == 1
    assert [len(epoch) for epoch in detector.history] == [0, 0, 2, 1]


def test_threshold_validation():
    # The thresholds are fixed: a streak of one is weather, and one
    # stalled point is not an amplification.
    assert ALERT_THRESHOLD > 1 and AMPLIFICATION_THRESHOLD >= 2
    with pytest.raises(ImportError):
        from repro.monitor import StallConfig  # noqa: F401
    import repro
    assert not hasattr(repro, "StallConfig")


def amp(i, host="arin-amp.example"):
    return f"rsync://{host}/repo/amp{i}/"


def test_amplified_stall_aggregates_per_host():
    detector = make()
    stalled(detector, *(bad(amp(i)) for i in range(4)))
    alerts = detector.observe([bad(amp(i)) for i in range(4)])
    amplified = [a for a in alerts if a.kind is AlertKind.AMPLIFIED_STALL]
    assert len(amplified) == 1  # one alert per host, not per point
    assert amplified[0].subject == "arin-amp.example"
    assert amplified[0].severity == "critical" and amplified[0].is_suspicious
    assert "4 publication points" in amplified[0].detail
    # Re-raised while the amplification persists, like the per-point pages.
    again = detector.observe([bad(amp(i)) for i in range(4)])
    assert sum(a.kind is AlertKind.AMPLIFIED_STALL for a in again) == 1


def test_below_amplification_threshold_stays_per_point():
    detector = make()
    below = [bad(amp(i)) for i in range(AMPLIFICATION_THRESHOLD - 1)]
    stalled(detector, *below)
    alerts = detector.observe(below)
    assert [a.kind for a in alerts] == [AlertKind.SUSTAINED_STALL] * 2


def test_stalls_across_hosts_do_not_aggregate():
    detector = make()
    spread = [bad(f"rsync://host{i}.example/repo/") for i in range(5)]
    stalled(detector, *spread)
    alerts = detector.observe(spread)
    assert all(a.kind is AlertKind.SUSTAINED_STALL for a in alerts)
