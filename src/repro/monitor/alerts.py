"""Alert classification: separating abuse from churn.

The paper's open problem in executable form.  Given a snapshot diff, the
analyzer emits typed alerts:

=========================  ====================================================
alert                      signature
=========================  ====================================================
``TRANSPARENT_REVOCATION`` object withdrawn AND its serial appears on the
                           issuer's CRL — visible, accountable revocation.
``STEALTHY_DELETION``      object withdrawn with NO CRL entry (Side Effect 2).
``RC_SHRUNK``              a certificate replaced in place with strictly less
                           address space (the Side Effect 3 primitive); the
                           alert lists the ROAs the lost space was covering.
``SUSPICIOUS_REISSUE``     a new ROA authorizing (prefixes, asn) that some
                           *other* authority's ROA authorized in the previous
                           snapshot, while that ROA was whacked — the
                           make-before-break fingerprint (Figure 3).
``RENEWAL``                a ROA replaced by one with identical payload —
                           benign churn, reported at INFO level.
``SUSTAINED_STALL``        a publication point degraded (timeouts, stalls,
                           breaker-open) for N consecutive refresh epochs —
                           the Stalloris availability-attack fingerprint,
                           raised by :class:`repro.monitor.stall.StallDetector`
                           rather than by :func:`analyze`.
``AMPLIFIED_STALL``        many publication points of ONE authority (rsync
                           host) sustainedly stalled at once — the
                           delegation-tree amplification fingerprint: an
                           attacker minting slow delegated points to multiply
                           the per-point cost, raised by the stall detector's
                           per-host aggregation.
``MANIFEST_REPLAY``        a point's manifest ``thisUpdate`` moved backwards
                           between snapshots — a stale-but-signed past state
                           is being served, raised by
                           :func:`detect_manifest_replay`.  A standalone
                           detector: only tests call it; neither
                           :func:`analyze` nor ``DetectionExperiment``
                           runs it.
=========================  ====================================================

No detector for split-view serving ships: a monitor fetching from one
vantage point sees one view, so the equivocation that
:data:`~repro.repository.faults.FaultKind.SPLIT_VIEW` injects is
invisible to it.

"Distinguishing between abusive behavior and normal RPKI churn could be
difficult" (Section 3) — the detection experiment in the benchmarks
quantifies exactly how difficult, by scoring these alerts against ground
truth over churny histories.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..rpki import Manifest, Roa
from .diff import SnapshotDiff
from .snapshot import RpkiSnapshot

__all__ = [
    "AlertKind",
    "Alert",
    "analyze",
    "detect_manifest_replay",
]


class AlertKind(enum.Enum):
    TRANSPARENT_REVOCATION = "transparent-revocation"
    STEALTHY_DELETION = "stealthy-deletion"
    RC_SHRUNK = "rc-shrunk"
    SUSPICIOUS_REISSUE = "suspicious-reissue"
    RENEWAL = "renewal"
    SUSTAINED_STALL = "sustained-stall"
    AMPLIFIED_STALL = "amplified-stall"
    MANIFEST_REPLAY = "manifest-replay"


_SEVERITY = {
    AlertKind.TRANSPARENT_REVOCATION: "notice",
    AlertKind.STEALTHY_DELETION: "warning",
    AlertKind.RC_SHRUNK: "warning",
    AlertKind.SUSPICIOUS_REISSUE: "critical",
    AlertKind.RENEWAL: "info",
    AlertKind.SUSTAINED_STALL: "critical",
    AlertKind.AMPLIFIED_STALL: "critical",
    AlertKind.MANIFEST_REPLAY: "critical",
}


@dataclass(frozen=True)
class Alert:
    kind: AlertKind
    point_uri: str
    subject: str       # what object/space the alert is about
    detail: str

    @property
    def severity(self) -> str:
        return _SEVERITY[self.kind]

    @property
    def is_suspicious(self) -> bool:
        """Alerts a deterrence monitor would page on."""
        return self.kind in (
            AlertKind.STEALTHY_DELETION,
            AlertKind.RC_SHRUNK,
            AlertKind.SUSPICIOUS_REISSUE,
            AlertKind.SUSTAINED_STALL,
            AlertKind.AMPLIFIED_STALL,
            AlertKind.MANIFEST_REPLAY,
        )

    def __str__(self) -> str:
        return f"[{self.severity}] {self.kind.value}: {self.subject} — {self.detail}"


def analyze(
    diff: SnapshotDiff,
    before: RpkiSnapshot,
    after: RpkiSnapshot,
) -> list[Alert]:
    """Turn a structural diff into classified alerts."""
    alerts: list[Alert] = []
    after_crls = after.point_crls

    def revoked_at(point_uri: str, obj) -> bool:
        """Whether the point's CRL revokes *obj*: a serial is revoked only
        by the CRL of the key that issued it."""
        crl = after_crls.get(point_uri)
        return (crl is not None and crl.issuer_key_id == obj.issuer_key_id
                and crl.is_revoked(obj.serial))

    # -- withdrawals: transparent vs stealthy --------------------------------
    whacked_payloads: set[str] = set()
    for record in diff.removed_roas():
        assert isinstance(record.obj, Roa)
        serial = record.obj.ee_cert.serial
        revoked_here = revoked_at(record.point_uri, record.obj.ee_cert)
        payload = record.obj.describe()
        whacked_payloads.add(payload)
        if revoked_here:
            alerts.append(Alert(
                AlertKind.TRANSPARENT_REVOCATION, record.point_uri, payload,
                f"ROA withdrawn with CRL entry for EE serial {serial}",
            ))
        else:
            alerts.append(Alert(
                AlertKind.STEALTHY_DELETION, record.point_uri, payload,
                "ROA vanished with no corresponding CRL entry",
            ))
    for record in diff.removed_certs():
        revoked_here = revoked_at(record.point_uri, record.obj)
        kind = (
            AlertKind.TRANSPARENT_REVOCATION if revoked_here
            else AlertKind.STEALTHY_DELETION
        )
        alerts.append(Alert(
            kind, record.point_uri,
            f"RC for {record.obj.subject!r}",
            "certificate withdrawn"
            + (" with CRL entry" if revoked_here else " with no CRL entry"),
        ))

    # -- in-place certificate shrinks -------------------------------------------
    for change in diff.shrunken_certs():
        lost = change.lost_resources
        # Which ROAs (previous snapshot) did the lost space cover?
        whacked = [
            record.obj.describe()
            for record in before.roas()
            if isinstance(record.obj, Roa)
            and any(lost.overlaps(rp.prefix) for rp in record.obj.prefixes)
        ]
        whacked_payloads.update(whacked)
        detail = f"lost {lost}"
        if whacked:
            detail += "; covering ROAs now invalid: " + ", ".join(whacked)
        alerts.append(Alert(
            AlertKind.RC_SHRUNK, change.point_uri,
            f"RC for {change.after.subject!r}", detail,
        ))

    # -- renewals and semantic ROA rewrites ----------------------------------------
    for change in diff.roa_changes:
        if change.same_payload:
            alerts.append(Alert(
                AlertKind.RENEWAL, change.point_uri,
                change.after.describe(), "ROA reissued with identical payload",
            ))
        else:
            whacked_payloads.add(change.before.describe())
            alerts.append(Alert(
                AlertKind.STEALTHY_DELETION, change.point_uri,
                change.before.describe(),
                f"ROA overwritten by {change.after.describe()}",
            ))

    # -- the make-before-break fingerprint --------------------------------------------
    before_index = before.roa_payload_index()
    for record in diff.added_roas():
        assert isinstance(record.obj, Roa)
        payload = record.obj.describe()
        previous_holders = {
            r.point_uri for r in before_index.get(payload, [])
        }
        if not previous_holders:
            continue
        if record.point_uri in previous_holders:
            continue
        if payload in whacked_payloads or any(
            (uri, name) not in after.records
            for uri, name in (
                (r.point_uri, r.file_name) for r in before_index[payload]
            )
        ):
            alerts.append(Alert(
                AlertKind.SUSPICIOUS_REISSUE, record.point_uri,
                payload,
                "ROA reissued at a different publication point while the "
                f"original (at {', '.join(sorted(previous_holders))}) was whacked",
            ))
    return alerts


def detect_manifest_replay(
    before: RpkiSnapshot, after: RpkiSnapshot
) -> list[Alert]:
    """Flag points whose manifest ``thisUpdate`` moved backwards.

    An authority only ever signs manifests with non-decreasing issue
    times, so a regression between two monitor snapshots means someone is
    serving a stale-but-signed past state — the manifest-replay Byzantine
    fault (hiding newer ROAs, or resurrecting whacked ones).
    """
    previous: dict[str, int] = {}
    for record in before.manifests():
        assert isinstance(record.obj, Manifest)
        previous[record.point_uri] = record.obj.this_update
    alerts: list[Alert] = []
    for record in sorted(after.manifests(), key=lambda r: r.point_uri):
        assert isinstance(record.obj, Manifest)
        issued_before = previous.get(record.point_uri)
        if issued_before is None or record.obj.this_update >= issued_before:
            continue
        alerts.append(Alert(
            AlertKind.MANIFEST_REPLAY, record.point_uri, record.file_name,
            f"manifest thisUpdate went backwards: {issued_before} -> "
            f"{record.obj.this_update} (stale signed state being served)",
        ))
    return alerts
