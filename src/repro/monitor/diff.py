"""Structural diffs between RPKI snapshots.

The diff layer answers "what changed?" without judging it: files added,
removed, or replaced, and — object-aware — certificates whose resource
sets shrank, ROAs that vanished, serials newly revoked.  The alert layer
on top decides what looks abusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..resources import ResourceSet
from ..rpki import ResourceCertificate, Roa
from .snapshot import ObjectRecord, RpkiSnapshot

__all__ = ["CertChange", "RoaChange", "SnapshotDiff", "diff_snapshots"]


@dataclass(frozen=True)
class CertChange:
    """A certificate replaced under the same file name."""

    point_uri: str
    file_name: str
    before: ResourceCertificate
    after: ResourceCertificate

    @cached_property
    def lost_resources(self) -> ResourceSet:
        """The address space the new certificate no longer holds;
        computed once, however often ``shrank`` and the alerts ask."""
        return self.before.ip_resources.subtract(self.after.ip_resources)

    @property
    def shrank(self) -> bool:
        """True if the new certificate holds strictly less address space."""
        return not self.lost_resources.is_empty()


@dataclass(frozen=True)
class RoaChange:
    """A ROA replaced under the same file name."""

    point_uri: str
    file_name: str
    before: Roa
    after: Roa

    @property
    def same_payload(self) -> bool:
        """Same (prefixes, asn): a renewal, not a semantic change."""
        return (
            self.before.describe() == self.after.describe()
        )


@dataclass
class SnapshotDiff:
    """Everything that changed between two snapshots."""

    before_at: int
    after_at: int
    added: list[ObjectRecord] = field(default_factory=list)
    removed: list[ObjectRecord] = field(default_factory=list)
    cert_changes: list[CertChange] = field(default_factory=list)
    roa_changes: list[RoaChange] = field(default_factory=list)
    newly_revoked: dict[str, tuple[int, ...]] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not (
            self.added
            or self.removed
            or self.cert_changes
            or self.roa_changes
            or any(self.newly_revoked.values())
        )

    def removed_roas(self) -> list[ObjectRecord]:
        return [r for r in self.removed if isinstance(r.obj, Roa)]

    def removed_certs(self) -> list[ObjectRecord]:
        return [r for r in self.removed if isinstance(r.obj, ResourceCertificate)]

    def added_roas(self) -> list[ObjectRecord]:
        return [r for r in self.added if isinstance(r.obj, Roa)]

    def shrunken_certs(self) -> list[CertChange]:
        return [c for c in self.cert_changes if c.shrank]


def diff_snapshots(before: RpkiSnapshot, after: RpkiSnapshot) -> SnapshotDiff:
    """Compute the structural delta between two snapshots."""
    diff = SnapshotDiff(before_at=before.taken_at, after_at=after.taken_at)

    before_keys = set(before.records)
    after_keys = set(after.records)

    for key in sorted(after_keys - before_keys):
        diff.added.append(after.records[key])
    for key in sorted(before_keys - after_keys):
        diff.removed.append(before.records[key])

    for key in sorted(before_keys & after_keys):
        old = before.records[key]
        new = after.records[key]
        if old.obj == new.obj:
            continue
        if isinstance(old.obj, ResourceCertificate) and isinstance(
            new.obj, ResourceCertificate
        ):
            diff.cert_changes.append(CertChange(
                point_uri=key[0], file_name=key[1],
                before=old.obj, after=new.obj,
            ))
        elif isinstance(old.obj, Roa) and isinstance(new.obj, Roa):
            diff.roa_changes.append(RoaChange(
                point_uri=key[0], file_name=key[1],
                before=old.obj, after=new.obj,
            ))
        # CRL/manifest churn is expected on every publish; the revocation
        # delta below captures the meaningful part.

    # Serials are the authority's to choose, so they are bisected in the
    # ascending order the parser enforces, never put in a set.
    before_crls = before.point_crls
    for uri, crl in after.point_crls.items():
        old = before_crls.get(uri)
        delta = tuple(
            serial for serial in crl.revoked_serials
            if old is None or not old.is_revoked(serial)
        )
        if delta:
            diff.newly_revoked[uri] = delta
    return diff
