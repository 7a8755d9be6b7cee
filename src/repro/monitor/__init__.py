"""RPKI monitoring: snapshots, diffs, alert classification, detection.

The paper's Section 3.1 open problem — "monitoring schemes that deter
RPKI manipulations by detecting suspiciously reissued objects" — built
out: take global snapshots, diff them, classify the churn, and score the
classifier against injected whack campaigns.
"""

from .alerts import (
    Alert,
    AlertKind,
    analyze,
    detect_manifest_replay,
)
from .churn import ChurnConfig, ChurnEngine, ChurnEvent
from .diff import CertChange, RoaChange, SnapshotDiff, diff_snapshots
from .experiment import DetectionExperiment, DetectionScore, EpochAlerts
from .snapshot import ObjectRecord, RpkiSnapshot, take_snapshot
from .stall import StallDetector

__all__ = [
    "Alert",
    "AlertKind",
    "CertChange",
    "ChurnConfig",
    "ChurnEngine",
    "ChurnEvent",
    "DetectionExperiment",
    "DetectionScore",
    "EpochAlerts",
    "ObjectRecord",
    "RoaChange",
    "RpkiSnapshot",
    "SnapshotDiff",
    "StallDetector",
    "analyze",
    "detect_manifest_replay",
    "diff_snapshots",
    "take_snapshot",
]
