"""Point-in-time snapshots of the global RPKI publication state.

The monitor is the paper's proposed countermeasure sketch: "one of the
open problems we are working on is the design of monitoring schemes that
deter RPKI manipulations by detecting suspiciously reissued objects"
(Section 3.1).  A monitor watches from outside: it fetches everything,
remembers what it saw, and diffs.

A snapshot is purely syntactic — bytes per file per publication point,
plus a parsed-object index.  Interpretation (what changed, and does it
look like an attack?) lives in :mod:`repro.monitor.diff` and
:mod:`repro.monitor.alerts`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto import RsaPublicKey, key_id_of
from ..repository import RepositoryRegistry
from ..rpki import Crl, Manifest, ResourceCertificate, Roa, SignedObject
from ..rpki.ca import CRL_FILE
from ..rpki.errors import ObjectFormatError
from ..rpki.parse import parse_object

__all__ = ["ObjectRecord", "RpkiSnapshot", "take_snapshot"]


@dataclass(frozen=True)
class ObjectRecord:
    """One published object as the monitor saw it."""

    point_uri: str
    file_name: str
    obj: SignedObject

    @property
    def kind(self) -> str:
        return self.obj.TYPE


@dataclass
class RpkiSnapshot:
    """Everything published across all repositories, at one instant."""

    taken_at: int
    files: dict[str, dict[str, bytes]] = field(default_factory=dict)
    records: dict[tuple[str, str], ObjectRecord] = field(default_factory=dict)
    unparsable: list[tuple[str, str]] = field(default_factory=list)
    # Per point URI, the CRL published there that a relying party would
    # believe (ask it ``is_revoked``); see :func:`_believed_crls`.
    point_crls: dict[str, Crl] = field(default_factory=dict)

    # -- typed views -----------------------------------------------------------

    def certs(self) -> list[ObjectRecord]:
        return [r for r in self.records.values() if isinstance(r.obj, ResourceCertificate)]

    def roas(self) -> list[ObjectRecord]:
        return [r for r in self.records.values() if isinstance(r.obj, Roa)]

    def crls(self) -> list[ObjectRecord]:
        return [r for r in self.records.values() if isinstance(r.obj, Crl)]

    def manifests(self) -> list[ObjectRecord]:
        return [r for r in self.records.values() if isinstance(r.obj, Manifest)]

    def roa_payload_index(self) -> dict[str, list[ObjectRecord]]:
        """ROAs indexed by their payload signature '(prefixes, asn)'.

        Two ROAs with the same index entry authorize the same routes —
        the key the suspicious-reissue detector joins on.
        """
        index: dict[str, list[ObjectRecord]] = {}
        for record in self.roas():
            assert isinstance(record.obj, Roa)
            index.setdefault(record.obj.describe(), []).append(record)
        return index

    def __len__(self) -> int:
        return len(self.records)


def _believed_crls(snapshot: RpkiSnapshot,
                  trust_anchors: list[ResourceCertificate]) -> dict[str, Crl]:
    """Per point URI, the CRL published there that a relying party reads.

    Only the CRL at :data:`~repro.rpki.ca.CRL_FILE` counts, the one file
    a relying party reads revocations from: a CRL-typed object under any
    other name is a decoy that must not turn a stealthy deletion into a
    transparent revocation.  And it counts only if it verifies under the
    key it names as its issuer, taken from a CA certificate that names
    the point (its SIA or a mirror): one the snapshot holds, or one of
    *trust_anchors*, whose certificates no repository publishes.  That is
    the relying party's ``crl-bad-signature`` rule: a ``ca.crl`` anyone
    else signed revokes nothing.  A key is indexed under its fingerprint,
    not under the key id its certificate claims, so no certificate can
    lend its point another authority's name.
    """
    keys: dict[tuple[str, str], RsaPublicKey] = {}
    for cert in [*trust_anchors, *(record.obj for record in snapshot.certs())]:
        key_id = key_id_of(cert.subject_key)
        for uri in cert.all_publication_uris:
            keys[uri, key_id] = cert.subject_key
    believed: dict[str, Crl] = {}
    for (uri, name), record in snapshot.records.items():
        crl = record.obj
        if name != CRL_FILE or not isinstance(crl, Crl):
            continue
        key = keys.get((uri, crl.issuer_key_id))
        if key is not None and crl.verify_signature(key):
            believed[uri] = crl
    return believed


def take_snapshot(registry: RepositoryRegistry, now: int, *,
                  trust_anchors: list[ResourceCertificate]) -> RpkiSnapshot:
    """Fetch-and-parse everything in every registered repository.

    The monitor is assumed to have connectivity (it is exactly the kind
    of out-of-band observer the paper's countermeasures rely on), so this
    reads repository contents directly rather than going through a
    relying party's delivery path.  Like a relying party it starts from
    *trust_anchors*, the certificates its TALs name; each point's CRL is
    checked once, here (:func:`_believed_crls`).
    """
    snapshot = RpkiSnapshot(taken_at=now)
    for server in registry.servers():
        for point in server.points():
            uri = str(point.uri)
            file_map: dict[str, bytes] = {}
            for name in point.names():
                data = point.get(name)
                assert data is not None
                file_map[name] = data
                try:
                    obj = parse_object(data)
                except ObjectFormatError:
                    snapshot.unparsable.append((uri, name))
                    continue
                snapshot.records[(uri, name)] = ObjectRecord(
                    point_uri=uri, file_name=name, obj=obj
                )
            snapshot.files[uri] = file_map
    snapshot.point_crls = _believed_crls(snapshot, trust_anchors)
    return snapshot
