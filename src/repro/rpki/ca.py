"""The certification-authority engine.

A :class:`CertificateAuthority` is one authority in the RPKI hierarchy: it
holds a key, a certificate from its parent (or a self-signed trust-anchor
certificate), and a publication point it fully controls.  It can:

- issue and renew child resource certificates and ROAs (with the
  least-privilege coverage check the RPKI mandates);
- revoke transparently via its CRL, or *stealthily* by deleting or
  overwriting published files (Side Effects 1-2);
- overwrite a child's certificate with one for a smaller resource set —
  the primitive behind targeted grandchild whacking (Side Effect 3);
- reissue a descendant's ROA as its own ("make-before-break", Figure 3);
- roll its key per RFC 6489, which exercises the persistent-name design
  decision the paper ties to overwritability.

Every mutation republishes the CRL and manifest, so the publication point
is always internally consistent unless a caller explicitly asks for an
inconsistent state (fault injection for Side Effect 6 experiments).
"""

from __future__ import annotations

import contextlib
from bisect import bisect_left
from typing import Iterator

from ..crypto import KeyFactory, KeyPair, RsaPublicKey
from ..crypto.encoding import LIST, MAP, write_container, write_int, write_str
from ..resources import ASN, AsnSet, ResourceSet
from ..simtime import Clock, DAY, YEAR
from .cert import EECertificate, ResourceCertificate, build_certificate
from .crl import Crl
from .errors import IssuanceError, RevocationError, RolloverError
from .manifest import Manifest
from .objects import build_signed
from .publication import InMemoryPublicationPoint, PublicationTarget
from .roa import Roa, RoaPrefix, build_roa

__all__ = ["CertificateAuthority", "CRL_FILE", "MANIFEST_FILE"]

CRL_FILE = "ca.crl"
MANIFEST_FILE = "ca.mft"

_DEFAULT_RC_VALIDITY = YEAR
_DEFAULT_ROA_VALIDITY = 90 * DAY
_DEFAULT_CRL_WINDOW = DAY


class CertificateAuthority:
    """One RPKI authority: key, certificate, publication point, issuance.

    Construction goes through :meth:`create_trust_anchor` for roots or
    ``parent.issue_child_authority(...)`` for everyone else; the bare
    constructor wires pre-built state together.
    """

    def __init__(
        self,
        *,
        handle: str,
        key: KeyPair,
        certificate: ResourceCertificate,
        clock: Clock,
        key_factory: KeyFactory,
        publication_point: PublicationTarget | None = None,
        parent: "CertificateAuthority | None" = None,
    ):
        self.handle = handle
        self._key = key
        self._certificate = certificate
        self._clock = clock
        self._key_factory = key_factory
        self._parent = parent
        self.publication_point: PublicationTarget = (
            publication_point if publication_point is not None
            else InMemoryPublicationPoint()
        )
        self._next_serial = 1
        # Every serial this authority revoked, ascending, and each one's
        # encoding in the same order (see _revoke): a CRL joins them.
        self._revoked_serials: list[int] = []
        self._revoked_encoded: list[bytes] = []
        # The manifest's listing as of the last publish, by file name:
        # the wire bytes listed (what a publish compares to see what
        # changed), their SHA-256 and the encoded (name, hash) pair.
        self._listed: dict[str, bytes] = {}
        self._hashes: dict[str, str] = {}
        self._entries: dict[str, bytes] = {}
        # Mirror publication points (multiple-publication-points support):
        # (uri, target) pairs that publish() keeps in sync with the primary.
        self._mirrors: list[tuple[str, PublicationTarget]] = []
        # Current (latest) issued objects, by publication file name.
        self._issued_certs: dict[str, ResourceCertificate] = {}
        self._issued_roas: dict[str, Roa] = {}
        self._children: dict[str, CertificateAuthority] = {}
        # Deferred-publication state (see deferred_publication()): while
        # deferred, publish() only records that a sync is owed.
        self._publish_deferred = False
        self._publish_pending = False
        self.publish()

    # -- construction -------------------------------------------------------

    @classmethod
    def create_trust_anchor(
        cls,
        *,
        handle: str,
        ip_resources: ResourceSet,
        clock: Clock,
        key_factory: KeyFactory,
        sia: str = "",
        publication_point: PublicationTarget | None = None,
    ) -> "CertificateAuthority":
        """Create a root authority with a self-signed certificate.

        In production the root will "likely be the five RIRs or IANA"
        (paper, footnote 2); the model generator creates whichever the
        scenario wants.
        """
        key = key_factory.next_keypair()
        now = clock.now
        certificate = build_certificate(
            issuer_key=key,
            issuer_key_id=key.key_id,
            subject=handle,
            subject_key=key.public,
            ip_resources=ip_resources,
            as_resources=None,
            serial=0,
            not_before=now,
            not_after=now + 2 * YEAR,
            sia=sia or f"rsync://{handle.lower()}/repo/",
            crldp="",
            is_ca=True,
        )
        return cls(
            handle=handle,
            key=key,
            certificate=certificate,
            clock=clock,
            key_factory=key_factory,
            publication_point=publication_point,
        )

    # -- identity --------------------------------------------------------------

    @property
    def key(self) -> KeyPair:
        return self._key

    @property
    def key_id(self) -> str:
        return self._key.key_id

    @property
    def certificate(self) -> ResourceCertificate:
        """This authority's own RC (issued by its parent, or self-signed)."""
        return self._certificate

    @certificate.setter
    def certificate(self, new_cert: ResourceCertificate) -> None:
        """Installed by the parent on renewal/overwrite/rollover."""
        self._certificate = new_cert

    @property
    def parent(self) -> "CertificateAuthority | None":
        return self._parent

    @property
    def resources(self) -> ResourceSet:
        """The IP resources this authority currently holds."""
        return self._certificate.ip_resources

    @property
    def sia(self) -> str:
        return self._certificate.sia

    @property
    def crl_uri(self) -> str:
        return self.sia + CRL_FILE

    def children(self) -> Iterator["CertificateAuthority"]:
        """Child *authorities* created through this engine."""
        return iter(self._children.values())

    def subtree(self) -> Iterator["CertificateAuthority"]:
        """This authority, then its descendants: depth-first, preorder,
        children in the order they were created."""
        stack = [self]
        while stack:
            authority = stack.pop()
            yield authority
            stack.extend(reversed(authority._children.values()))

    def find_descendant(self, handle: str) -> "CertificateAuthority | None":
        """Depth-first search of the authority subtree by handle."""
        return next(
            (ca for ca in self.subtree() if ca.handle == handle), None)

    # -- issued-object views ------------------------------------------------------

    @property
    def issued_certs(self) -> dict[str, ResourceCertificate]:
        """Current child RCs by publication file name."""
        return dict(self._issued_certs)

    @property
    def issued_roas(self) -> dict[str, Roa]:
        """Current ROAs by publication file name."""
        return dict(self._issued_roas)

    def roa_named(self, name: str) -> Roa:
        try:
            return self._issued_roas[name]
        except KeyError:
            raise RevocationError(f"{self.handle} has no ROA named {name!r}") from None

    # -- serials --------------------------------------------------------------------

    def _take_serial(self) -> int:
        serial = self._next_serial
        self._next_serial += 1
        return serial

    # -- issuance ---------------------------------------------------------------------

    def issue_child_authority(
        self,
        handle: str,
        ip_resources: ResourceSet,
        *,
        sia: str | None = None,
        publication_point: PublicationTarget | None = None,
    ) -> "CertificateAuthority":
        """Create a child authority: new key, new RC, new publication point.

        This is the suballocation step of Figure 2 (ARIN → Sprint →
        Continental Broadband).  Raises :class:`IssuanceError` if the
        requested resources are not covered by this authority's own
        certificate — the least-privilege rule.
        """
        child_key = self._key_factory.next_keypair()
        child_sia = sia or f"{self.sia}{handle.lower()}/"
        certificate = self._issue_rc(
            subject=handle,
            subject_public_key=child_key.public,
            ip_resources=ip_resources,
            as_resources=None,
            sia=child_sia,
            validity=_DEFAULT_RC_VALIDITY,
        )
        child = CertificateAuthority(
            handle=handle,
            key=child_key,
            certificate=certificate,
            clock=self._clock,
            key_factory=self._key_factory,
            publication_point=publication_point,
            parent=self,
        )
        self._children[child.key_id] = child
        return child

    def _issue_rc(
        self,
        *,
        subject: str,
        subject_public_key: RsaPublicKey,
        ip_resources: ResourceSet,
        as_resources: AsnSet | None,
        sia: str,
        sia_mirrors: list[str] | None = None,
        validity: int,
    ) -> ResourceCertificate:
        """Issue (or reissue) a child RC and publish it."""
        self._require_coverage(ip_resources, as_resources)
        now = self._clock.now
        certificate = build_certificate(
            issuer_key=self._key,
            issuer_key_id=self.key_id,
            subject=subject,
            subject_key=subject_public_key,
            ip_resources=ip_resources,
            as_resources=as_resources,
            serial=self._take_serial(),
            not_before=now,
            not_after=now + validity,
            sia=sia,
            sia_mirrors=sia_mirrors,
            crldp=self.crl_uri,
            is_ca=True,
        )
        assert isinstance(certificate, ResourceCertificate)
        name = cert_file_name(certificate)
        self._issued_certs[name] = certificate
        self.publish()
        return certificate

    def _require_coverage(
        self, ip_resources: ResourceSet, as_resources: AsnSet | None
    ) -> None:
        if not self.resources.covers(ip_resources):
            raise IssuanceError(
                f"{self.handle} holds {self.resources} and cannot delegate "
                f"{ip_resources}"
            )
        if as_resources is not None and not as_resources.is_empty():
            if not self._certificate.as_resources.covers(as_resources):
                raise IssuanceError(
                    f"{self.handle} cannot delegate AS resources {as_resources}"
                )

    def issue_roa(
        self,
        asn: ASN | int,
        prefixes: list[RoaPrefix] | list[str] | str,
        *,
        name: str | None = None,
        validity: int = _DEFAULT_ROA_VALIDITY,
        ee_key: KeyPair | None = None,
    ) -> tuple[str, Roa]:
        """Issue a ROA authorizing *asn* to originate *prefixes*.

        Accepts the paper's string notation directly::

            sprint.issue_roa(1239, "63.160.0.0/12-13")

        Returns ``(file_name, roa)``.  The EE certificate is generated
        here (one-time-use, resources exactly the ROA's prefixes) and
        embedded in the ROA.  Pass *ee_key* to reuse a keypair across
        many EE certificates — validation only checks issuer linkage and
        the signature, so bulk world generation shares one EE key per
        authority instead of generating one per ROA.

        *name* may be a ROA's (an overwrite, as :meth:`renew_roa` makes)
        but no other object's: not the CRL's, the manifest's or a child
        certificate's, which would keep the file while the manifest
        listed the ROA's hash under it.
        """
        if name is not None and (
            name in (CRL_FILE, MANIFEST_FILE)
            or name in self._issued_certs
        ):
            raise IssuanceError(
                f"{self.handle} cannot publish a ROA as {name!r}: "
                f"another of its objects has that name"
            )
        roa_prefixes = _coerce_roa_prefixes(prefixes)
        roa_resources = ResourceSet.from_prefixes(rp.prefix for rp in roa_prefixes)
        self._require_coverage(roa_resources, None)

        now = self._clock.now
        if ee_key is None:
            ee_key = self._key_factory.next_keypair()
        ee_serial = self._take_serial()
        ee_cert = build_certificate(
            issuer_key=self._key,
            issuer_key_id=self.key_id,
            subject=f"{self.handle}-ee-{ee_serial}",
            subject_key=ee_key.public,
            ip_resources=roa_resources,
            as_resources=None,
            serial=ee_serial,
            not_before=now,
            not_after=now + validity,
            sia="",
            crldp=self.crl_uri,
            is_ca=False,
        )
        assert isinstance(ee_cert, EECertificate)
        roa_serial = self._take_serial()
        roa = build_roa(
            ee_key=ee_key,
            ee_cert=ee_cert,
            asn=asn,
            prefixes=roa_prefixes,
            serial=roa_serial,
            not_before=now,
            not_after=now + validity,
        )
        file_name = name or f"roa-{roa_serial}.roa"
        self._issued_roas[file_name] = roa
        self.publish()
        return file_name, roa

    def renew_roa(self, name: str, *, validity: int = _DEFAULT_ROA_VALIDITY) -> Roa:
        """Reissue the ROA under the same file name with a fresh window.

        Persistent names make renewal an overwrite — the design decision
        ("objects can be overwritten") that also enables stealthy
        revocation.
        """
        old = self.roa_named(name)
        prefixes = list(old.prefixes)
        # Check coverage before withdrawing anything: a renewal that the
        # authority is no longer entitled to make must leave the old object
        # in place (it fails validation on its own, but that is the relying
        # party's judgement, not ours to preempt).
        roa_resources = ResourceSet.from_prefixes(rp.prefix for rp in prefixes)
        self._require_coverage(roa_resources, None)
        del self._issued_roas[name]
        _, renewed = self.issue_roa(old.asn, prefixes, name=name, validity=validity)
        return renewed

    # -- revocation: the transparent channel ------------------------------------------

    def revoke_cert(self, certificate: ResourceCertificate) -> None:
        """Transparently revoke a child RC: CRL entry + file withdrawal.

        This is the blunt instrument of Section 3.1 — it invalidates the
        entire subtree below the child.
        """
        name = cert_file_name(certificate)
        if self._issued_certs.get(name) != certificate:
            raise RevocationError(
                f"{self.handle} did not issue (or no longer publishes) "
                f"certificate serial {certificate.serial}"
            )
        self._revoke(certificate.serial)
        del self._issued_certs[name]
        self.publish()

    def revoke_roa(self, name: str) -> None:
        """Transparently revoke a ROA (via its EE cert serial) and withdraw it."""
        roa = self.roa_named(name)
        self._revoke(roa.ee_cert.serial)
        del self._issued_roas[name]
        self.publish()

    def _revoke(self, serial: int) -> None:
        """Put *serial* on the CRL from the next publish on (once)."""
        serials = self._revoked_serials
        at = bisect_left(serials, serial)
        if at == len(serials) or serials[at] != serial:
            serials.insert(at, serial)
            self._revoked_encoded.insert(at, write_int(serial))

    # -- revocation: the stealthy channels (Side Effect 2) ------------------------------

    def delete_object(self, name: str) -> None:
        """Silently drop a published object: no CRL entry, manifest updated.

        "An authority can delete any ROA or RC it issued from its
        repository" — the deletion is visible only as churn.
        """
        self._issued_certs.pop(name, None)
        self._issued_roas.pop(name, None)
        self.publish()

    def overwrite_child_cert(
        self,
        child_key_id: str,
        new_ip_resources: ResourceSet,
    ) -> ResourceCertificate:
        """Overwrite a child's RC with one for different (usually smaller)
        resources — same subject, same key, same file name, new serial.

        This is the grandchild-whacking primitive (Side Effect 3): shrink
        the child's certificate so it no longer covers the target ROA.  No
        CRL entry is written; the old certificate simply vanishes under
        the persistent name.
        """
        old = self._find_issued_cert_by_key_id(child_key_id)
        child = self._children.get(child_key_id)
        new_cert = self._issue_rc(
            subject=old.subject,
            subject_public_key=old.subject_key,
            ip_resources=new_ip_resources,
            as_resources=old.as_resources,
            sia=old.sia,
            sia_mirrors=list(old.sia_mirrors),
            validity=_DEFAULT_RC_VALIDITY,
        )
        if child is not None:
            child.certificate = new_cert
        return new_cert

    def _find_issued_cert_by_key_id(self, child_key_id: str) -> ResourceCertificate:
        for certificate in self._issued_certs.values():
            if certificate.subject_key_id == child_key_id:
                return certificate
        raise RevocationError(
            f"{self.handle} publishes no certificate for key {child_key_id!r}"
        )

    # -- key rollover (RFC 6489) ----------------------------------------------------------

    def roll_key(self) -> None:
        """Perform a key rollover: new key, reissued RC from the parent,
        and reissuance of every current child RC and ROA under the new key.

        Trust anchors re-self-sign.  Publication file names for the CA's
        own products stay stable (they are keyed by *subject*, not issuer),
        which is exactly why the RPKI allows overwriting.
        """
        if self._parent is None and not self._certificate.is_self_signed:
            raise RolloverError(f"{self.handle} has no parent to re-certify it")
        # One publish of this point, at the end: every state in between
        # (new key, some products reissued) is one no honest publish
        # means to make, and a replaying repository could serve it.
        with self.deferred_publication():
            self._reissue_under(self._key_factory.next_keypair())

    def _reissue_under(self, new_key: KeyPair) -> None:
        """:meth:`roll_key` to *new_key*, its publishes deferred."""
        old_certs = list(self._issued_certs.values())
        old_roas = dict(self._issued_roas)

        if self._parent is not None:
            parent = self._parent
            # Parent reissues our RC for the new key under a new file name
            # (the name contains the subject key id) and withdraws the old.
            old_name = cert_file_name(self._certificate)
            parent._issued_certs.pop(old_name, None)
            parent._children.pop(self._key.key_id, None)
            self._key = new_key
            parent._children[new_key.key_id] = self
            self._certificate = parent._issue_rc(
                subject=self.handle,
                subject_public_key=new_key.public,
                ip_resources=self._certificate.ip_resources,
                as_resources=self._certificate.as_resources,
                sia=self._certificate.sia,
                sia_mirrors=list(self._certificate.sia_mirrors),
                validity=_DEFAULT_RC_VALIDITY,
            )
        else:
            now = self._clock.now
            self._key = new_key
            certificate = build_certificate(
                issuer_key=new_key,
                issuer_key_id=new_key.key_id,
                subject=self.handle,
                subject_key=new_key.public,
                ip_resources=self._certificate.ip_resources,
                as_resources=self._certificate.as_resources,
                serial=self._take_serial(),
                not_before=now,
                not_after=now + 2 * YEAR,
                sia=self._certificate.sia,
                crldp="",
                is_ca=True,
            )
            assert isinstance(certificate, ResourceCertificate)
            self._certificate = certificate

        # Reissue all current products under the new key.
        self._issued_certs.clear()
        for old_cert in old_certs:
            child = self._children.get(old_cert.subject_key_id)
            new_child_cert = self._issue_rc(
                subject=old_cert.subject,
                subject_public_key=old_cert.subject_key,
                ip_resources=old_cert.ip_resources,
                as_resources=old_cert.as_resources,
                sia=old_cert.sia,
                sia_mirrors=list(old_cert.sia_mirrors),
                validity=_DEFAULT_RC_VALIDITY,
            )
            if child is not None:
                child.certificate = new_child_cert
        self._issued_roas.clear()
        for name, old_roa in old_roas.items():
            self.issue_roa(old_roa.asn, list(old_roa.prefixes), name=name)
        self.publish()

    # -- mirrors (multiple publication points) ---------------------------------------------

    def enable_mirror(self, uri: str, target: PublicationTarget) -> None:
        """Add a mirror publication point and re-certify with its URI.

        The multiple-publication-points hardening the paper points to as
        concurrent IETF work: the CA's products are published at several
        locations, and its certificate advertises all of them, so a
        relying party that cannot reach one (for instance because of the
        Section 6 circularity) falls back to the others.  The parent must
        reissue the RC so the mirror URI is covered by a signature.
        """
        self._mirrors.append((uri, target))
        if self._parent is not None:
            self._certificate = self._parent._issue_rc(
                subject=self.handle,
                subject_public_key=self._key.public,
                ip_resources=self._certificate.ip_resources,
                as_resources=self._certificate.as_resources,
                sia=self._certificate.sia,
                sia_mirrors=[u for u, _t in self._mirrors],
                validity=_DEFAULT_RC_VALIDITY,
            )
        self.publish()

    # -- publication ---------------------------------------------------------------------

    @contextlib.contextmanager
    def deferred_publication(self):
        """Batch many mutations into a single :meth:`publish`.

        Each issuance normally republishes the whole point — CRL,
        manifest, every file — which makes bulk issuance of *k* objects
        cost O(k²).  Inside this context the per-mutation syncs collapse
        into one publish on exit (only if a mutation actually happened),
        restoring O(k)::

            with isp.deferred_publication():
                for prefix in prefixes:
                    isp.issue_roa(asn, prefix)

        Re-entrant: nested uses publish once, at the outermost exit.
        """
        if self._publish_deferred:
            yield self
            return
        self._publish_deferred = True
        try:
            yield self
        finally:
            self._publish_deferred = False
            if self._publish_pending:
                self._publish_pending = False
                self.publish()

    def publish(self) -> None:
        """Synchronize the publication point with current issued objects.

        Writes every current child RC and ROA, a fresh CRL, and a fresh
        manifest covering exactly those files.  Files no longer issued are
        removed.  Inside :meth:`deferred_publication` the sync is
        postponed to the context exit.

        A publish costs what changed.  Every object keeps its wire bytes
        and SHA-256, the authority keeps each manifest entry and each
        revoked serial encoded, and only the entries of files whose
        bytes changed are encoded again; the rest of the CRL and the
        manifest is joined from those pieces.  The signatures still
        cover every byte.  Each target is compared with the whole
        desired state, so a tampered point is repaired.
        """
        if self._publish_deferred:
            self._publish_pending = True
            return
        point = self.publication_point
        now = self._clock.now

        issued = {**self._issued_certs, **self._issued_roas}
        files = {name: obj._wire for name, obj in issued.items()}
        hashes, entries = self._hashes, self._entries
        for name in self._listed.keys() - files.keys():
            del hashes[name], entries[name]
        for name, _wire in files.items() - self._listed.items():
            digest = hashes[name] = issued[name].hash_hex
            entries[name] = write_str(name) + write_str(digest)
        self._listed = files

        crl = build_signed(Crl, self._key, dict(
            serial=self._take_serial(),
            issuer_key_id=self.key_id,
            revoked_serials=tuple(self._revoked_serials),
            not_before=now,
            not_after=now + _DEFAULT_CRL_WINDOW,
        ), {"revoked_serials": write_container(
            LIST, b"".join(self._revoked_encoded))})
        digest = hashes[CRL_FILE] = crl.hash_hex
        entries[CRL_FILE] = write_str(CRL_FILE) + write_str(digest)

        # Canonical order is by encoded name, and each entry starts with
        # its encoded name, so sorting by entry sorts the names.
        names = sorted(entries, key=entries.__getitem__)
        manifest = build_signed(Manifest, self._key, dict(
            serial=self._take_serial(),
            issuer_key_id=self.key_id,
            entries=dict(zip(names, map(hashes.__getitem__, names))),
            not_before=now,
            not_after=now + _DEFAULT_CRL_WINDOW,
        ), {"entries": write_container(
            MAP, b"".join(map(entries.__getitem__, names)))})

        desired = {**files, CRL_FILE: crl.to_bytes(),
                   MANIFEST_FILE: manifest.to_bytes()}
        targets = [point] + [target for _uri, target in self._mirrors]
        for target in targets:
            current = target.snapshot()
            if current != desired:
                for name in current:
                    if name not in desired:
                        target.delete(name)
                have = current.items()
                for name, data in desired.items():
                    if (name, data) not in have:
                        target.put(name, data)
            # Record a consistent historical state on targets that keep
            # history (the replay-fault substrate); plain dict-backed
            # targets without checkpoints are fine too.
            record = getattr(target, "checkpoint", None)
            if record is not None:
                record()


def cert_file_name(certificate: ResourceCertificate) -> str:
    """The stable publication file name of a child RC.

    Keyed by subject key id, so reissuing the same subject overwrites the
    old certificate — persistent names (paper, Section 3).
    """
    return f"{certificate.subject_key_id}.cer"


def _coerce_roa_prefixes(
    prefixes: list[RoaPrefix] | list[str] | str,
) -> list[RoaPrefix]:
    if isinstance(prefixes, str):
        prefixes = [prefixes]
    out: list[RoaPrefix] = []
    for item in prefixes:
        if isinstance(item, RoaPrefix):
            out.append(item)
        else:
            out.append(RoaPrefix.parse(item))
    return out
