"""The detection experiment: whack campaigns hidden in churn.

Scores the monitor's alerts against ground truth: over a history of
epochs, benign churn runs every epoch and attacks are injected at chosen
epochs.  An attacked ROA counts as *detected* if some suspicious alert in
the attack epoch names its payload (or the certificate shrink that killed
it).  Churn-only epochs that raise suspicious alerts contribute false
positives — which, thanks to sloppy operators who delete instead of
revoking, they do.  An epoch is one simulated hour (:data:`EPOCH_SECONDS`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..repository import RepositoryRegistry
from ..rpki import ResourceCertificate
from ..simtime import Clock, HOUR
from ..telemetry import MetricsRegistry, default_registry
from .alerts import Alert, AlertKind, analyze
from .churn import ChurnEngine
from .diff import diff_snapshots
from .snapshot import RpkiSnapshot, take_snapshot

__all__ = ["EpochAlerts", "DetectionScore", "DetectionExperiment"]

# Simulated seconds between two monitor snapshots.
EPOCH_SECONDS = HOUR

# An attack is a callable that mutates the world and returns the payload
# descriptions (Roa.describe() strings) of the ROAs it whacked.
AttackFn = Callable[[], list[str]]


@dataclass
class EpochAlerts:
    epoch: int
    alerts: list[Alert]
    churn_events: int
    attacked_payloads: list[str]

    @property
    def suspicious(self) -> list[Alert]:
        return [a for a in self.alerts if a.is_suspicious]


@dataclass
class DetectionScore:
    """Precision/recall of suspicious alerts against injected attacks."""

    true_positives: int = 0
    false_negatives: int = 0
    false_positive_alerts: int = 0
    suspicious_alerts: int = 0
    alerts_by_kind: dict[AlertKind, int] = field(default_factory=dict)

    @property
    def recall(self) -> float:
        total = self.true_positives + self.false_negatives
        return self.true_positives / total if total else 1.0

    @property
    def precision(self) -> float:
        if not self.suspicious_alerts:
            return 1.0
        return 1.0 - self.false_positive_alerts / self.suspicious_alerts

    def render(self) -> str:
        lines = [
            f"recall    : {self.recall:.2f} "
            f"({self.true_positives}/{self.true_positives + self.false_negatives}"
            " attacked ROAs flagged)",
            f"precision : {self.precision:.2f} "
            f"({self.suspicious_alerts - self.false_positive_alerts}"
            f"/{self.suspicious_alerts} suspicious alerts were real attacks)",
        ]
        for kind in AlertKind:
            count = self.alerts_by_kind.get(kind, 0)
            if count:
                lines.append(f"  {kind.value:<24}: {count}")
        return "\n".join(lines)


class DetectionExperiment:
    """Run churn + attacks and score the monitor, epoch by epoch."""

    def __init__(
        self,
        *,
        registry: RepositoryRegistry,
        trust_anchors: list[ResourceCertificate],
        churn: ChurnEngine,
        clock: Clock,
        metrics: MetricsRegistry | None = None,
    ):
        self.registry = registry
        self.trust_anchors = trust_anchors
        self.churn = churn
        self.clock = clock
        self.history: list[EpochAlerts] = []
        self._last_snapshot: RpkiSnapshot = take_snapshot(
            registry, clock.now, trust_anchors=trust_anchors)
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_epochs = self.metrics.counter(
            "repro_monitor_epochs_total", help="monitor epochs executed"
        )
        self._m_alerts = self.metrics.counter(
            "repro_monitor_alerts_total",
            help="alerts raised by the monitor, by kind",
            labelnames=("kind",),
        )
        self._m_detections = self.metrics.counter(
            "repro_monitor_detections_total",
            help="attacked ROAs flagged by a suspicious alert in their epoch",
        )
        self._m_missed = self.metrics.counter(
            "repro_monitor_missed_attacks_total",
            help="attacked ROAs that no suspicious alert flagged",
        )
        self._m_false_positives = self.metrics.counter(
            "repro_monitor_false_positives_total",
            help="suspicious alerts not explained by any attack in their epoch",
        )

    def run_epoch(self, attack: AttackFn | None = None) -> EpochAlerts:
        """One epoch: churn, optional attack, snapshot, diff, classify."""
        self.clock.advance(EPOCH_SECONDS)
        churn_events = self.churn.tick()
        attacked = attack() if attack is not None else []

        snapshot = take_snapshot(
            self.registry, self.clock.now, trust_anchors=self.trust_anchors)
        diff = diff_snapshots(self._last_snapshot, snapshot)
        alerts = analyze(diff, self._last_snapshot, snapshot)
        self._last_snapshot = snapshot

        epoch = EpochAlerts(
            epoch=len(self.history),
            alerts=alerts,
            churn_events=len(churn_events),
            attacked_payloads=attacked,
        )
        self.history.append(epoch)
        self._m_epochs.inc()
        for alert in alerts:
            self._m_alerts.inc(kind=alert.kind.value)
        detected, missed, false_positives = _score_epoch(epoch)
        if detected:
            self._m_detections.inc(detected)
        if missed:
            self._m_missed.inc(missed)
        if false_positives:
            self._m_false_positives.inc(false_positives)
        return epoch

    def score(self) -> DetectionScore:
        """Score all epochs so far."""
        score = DetectionScore()
        for epoch in self.history:
            for alert in epoch.alerts:
                score.alerts_by_kind[alert.kind] = (
                    score.alerts_by_kind.get(alert.kind, 0) + 1
                )
            score.suspicious_alerts += len(epoch.suspicious)
            detected, missed, false_positives = _score_epoch(epoch)
            score.true_positives += detected
            score.false_negatives += missed
            score.false_positive_alerts += false_positives
        return score


def _score_epoch(epoch: EpochAlerts) -> tuple[int, int, int]:
    """(detected, missed, false-positive) counts for one epoch.

    An attacked payload counts as detected when some suspicious alert's
    subject/detail names it; a suspicious alert not explained by any
    attacked payload of its epoch is a false positive.
    """
    suspicious = epoch.suspicious
    flagged_payloads = " | ".join(f"{a.subject} {a.detail}" for a in suspicious)
    detected = sum(
        1 for payload in epoch.attacked_payloads if payload in flagged_payloads
    )
    missed = len(epoch.attacked_payloads) - detected
    false_positives = sum(
        1 for alert in suspicious
        if not any(p in f"{alert.subject} {alert.detail}"
                   for p in epoch.attacked_payloads)
    )
    return detected, missed, false_positives
