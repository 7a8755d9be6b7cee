"""Availability monitoring: sustained stalls vs. benign delivery churn.

The snapshot/diff monitor watches *content*; this module watches
*delivery*.  A publication point that misses one refresh is ordinary
Internet weather — the cache's grace window absorbs it.  A point that is
degraded for several *consecutive* refresh epochs is the fingerprint of
a Stalloris-style availability attack (or a dead authority): the relying
party is being held on stale data until the grace window runs out and
its routes downgrade to unknown.

:class:`StallDetector` folds in each refresh cycle's
:class:`~repro.repository.fetch.FetchResult` list and raises a
:data:`~repro.monitor.alerts.AlertKind.SUSTAINED_STALL` alert once a
point's consecutive-degraded streak reaches :data:`ALERT_THRESHOLD`.
Below the threshold nothing fires, which is what keeps background churn
(one-off flaky fetches, transient unreachability) out of the pager.

The detector also aggregates stalled points per authority (rsync host):
when one host accounts for :data:`AMPLIFICATION_THRESHOLD` or more
simultaneously stalled points, it raises a single
:data:`~repro.monitor.alerts.AlertKind.AMPLIFIED_STALL` alert for the
host — the delegation-tree amplification fingerprint (one misbehaving
authority minting many slow delegated points to multiply the per-point
cost), which per-point alerts alone would drown in noise.
"""

from __future__ import annotations

from ..repository.fetch import FetchResult, FetchStatus
from ..rpki import RsyncUri
from ..telemetry import MetricsRegistry, default_registry
from .alerts import Alert, AlertKind

__all__ = [
    "ALERT_THRESHOLD",
    "AMPLIFICATION_THRESHOLD",
    "DEGRADED_STATUSES",
    "StallDetector",
]

# Fetch outcomes that count as "the point did not deliver this epoch".
DEGRADED_STATUSES = frozenset({
    FetchStatus.TIMEOUT,
    FetchStatus.BREAKER_OPEN,
    FetchStatus.UNREACHABLE,
    FetchStatus.FAULTED,
    FetchStatus.UNKNOWN_HOST,
})

# Consecutive degraded epochs before a point pages.
ALERT_THRESHOLD = 3
# Simultaneously stalled points on one host before the aggregated
# amplified-stall alert fires alongside the per-point pages.
AMPLIFICATION_THRESHOLD = 3


class StallDetector:
    """Tracks per-point degraded streaks across refresh epochs.

    Feed it one :meth:`observe` call per refresh cycle (typically
    ``detector.observe(report.fetches)``).  A point's streak grows by one
    per epoch in which its *latest* fetch outcome was degraded and resets
    to zero on any successful delivery.  While a streak is at or past
    :data:`ALERT_THRESHOLD` the epoch yields a ``SUSTAINED_STALL`` alert for
    that point — re-raised every epoch the stall persists, because a
    monitor that pages once and goes quiet is how Side Effect 6 outages
    become permanent.
    """

    def __init__(self, *, metrics: MetricsRegistry | None = None):
        self.consecutive: dict[str, int] = {}
        self.history: list[list[Alert]] = []
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_alerts = self.metrics.counter(
            "repro_monitor_alerts_total",
            help="alerts raised by the monitor, by kind",
            labelnames=("kind",),
        )
        self._m_stalled = self.metrics.gauge(
            "repro_monitor_stalled_points",
            help="publication points currently at/past the stall threshold",
        )

    def observe(self, fetches: list[FetchResult]) -> list[Alert]:
        """Fold one epoch's fetch outcomes in; returns this epoch's alerts."""
        latest: dict[str, FetchResult] = {}
        for result in fetches:
            latest[result.uri] = result

        alerts: list[Alert] = []
        for uri in sorted(latest):
            result = latest[uri]
            if result.status in DEGRADED_STATUSES:
                streak = self.consecutive.get(uri, 0) + 1
                self.consecutive[uri] = streak
                if streak >= ALERT_THRESHOLD:
                    alerts.append(Alert(
                        AlertKind.SUSTAINED_STALL, uri, uri,
                        f"degraded for {streak} consecutive refresh epochs "
                        f"(latest: {result.status.value}) — relying parties "
                        "are running on stale cache",
                    ))
            else:
                self.consecutive[uri] = 0

        by_host: dict[str, list[str]] = {}
        for uri in self.stalled_points():
            by_host.setdefault(RsyncUri.parse(uri).host, []).append(uri)
        for host in sorted(by_host):
            stalled = by_host[host]
            if len(stalled) < AMPLIFICATION_THRESHOLD:
                continue
            alerts.append(Alert(
                AlertKind.AMPLIFIED_STALL, stalled[0], host,
                f"{len(stalled)} publication points of one authority "
                "sustainedly stalled at once — delegation-tree "
                "amplification (a Stalloris-grade slowdown, not an outage)",
            ))

        self.history.append(alerts)
        for alert in alerts:
            self._m_alerts.inc(kind=alert.kind.value)
        self._m_stalled.set(len(self.stalled_points()))
        return alerts

    def stalled_points(self) -> list[str]:
        """Points currently at or past the alert threshold, sorted."""
        return sorted(
            uri for uri, streak in self.consecutive.items()
            if streak >= ALERT_THRESHOLD
        )
