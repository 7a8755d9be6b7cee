"""Unit tests for the certification-authority engine.

The scenario skeleton throughout is the paper's Figure 2:
ARIN -> Sprint -> {ETB S.A. ESP., Continental Broadband}.
"""

import pytest

from repro.modelgen.figure2 import build_figure2
from repro.repository import Fetcher
from repro.resources import ASN, Prefix, ResourceSet
from repro.rp import RelyingParty
from repro.rpki import (
    CRL_FILE,
    MANIFEST_FILE,
    CertificateAuthority,
    IssuanceError,
    RevocationError,
    cert_file_name,
    parse_object,
)
from repro.rpki.crl import Crl
from repro.rpki.manifest import Manifest
from repro.simtime import DAY


@pytest.fixture
def arin(clock, key_factory):
    return CertificateAuthority.create_trust_anchor(
        handle="ARIN",
        ip_resources=ResourceSet.parse("0.0.0.0/0"),
        clock=clock,
        key_factory=key_factory,
    )


@pytest.fixture
def sprint(arin):
    return arin.issue_child_authority("Sprint", ResourceSet.parse("63.160.0.0/12"))


@pytest.fixture
def continental(sprint):
    return sprint.issue_child_authority(
        "Continental Broadband", ResourceSet.parse("63.174.16.0/20")
    )


class TestTrustAnchor:
    def test_self_signed(self, arin):
        assert arin.certificate.is_self_signed
        assert arin.certificate.verify_signature(arin.key.public)
        assert arin.parent is None

    def test_publishes_crl_and_manifest_immediately(self, arin):
        names = set(arin.publication_point.names())
        assert CRL_FILE in names and MANIFEST_FILE in names


class TestChildIssuance:
    def test_child_cert_fields(self, arin, sprint):
        rc = sprint.certificate
        assert rc.subject == "Sprint"
        assert rc.issuer_key_id == arin.key_id
        assert rc.ip_resources == ResourceSet.parse("63.160.0.0/12")
        assert rc.verify_signature(arin.key.public)
        assert sprint.parent is arin

    def test_child_cert_published_at_parent(self, arin, sprint):
        name = cert_file_name(sprint.certificate)
        blob = arin.publication_point.get(name)
        assert blob is not None
        assert parse_object(blob) == sprint.certificate

    def test_least_privilege_enforced(self, sprint):
        with pytest.raises(IssuanceError):
            sprint.issue_child_authority("Rogue", ResourceSet.parse("8.0.0.0/8"))

    def test_grandchild(self, sprint, continental):
        assert continental.certificate.issuer_key_id == sprint.key_id
        assert sprint.resources.covers(continental.resources)

    def test_find_descendant(self, arin, sprint, continental):
        assert arin.find_descendant("Continental Broadband") is continental
        assert arin.find_descendant("Sprint") is sprint
        assert arin.find_descendant("nobody") is None

    def test_children_listing(self, arin, sprint):
        assert list(arin.children()) == [sprint]


class TestRoaIssuance:
    def test_issue_roa_paper_notation(self, sprint):
        name, roa = sprint.issue_roa(1239, "63.160.0.0/12-13")
        assert roa.asn == ASN(1239)
        assert roa.prefixes[0].max_length == 13
        assert sprint.publication_point.get(name) == roa.to_bytes()

    def test_roa_ee_cert_valid(self, sprint):
        _, roa = sprint.issue_roa(1239, "63.160.0.0/12")
        assert roa.ee_cert.verify_signature(sprint.key.public)
        assert roa.ee_cert.ip_resources.covers(Prefix.parse("63.160.0.0/12"))
        assert roa.verify_signature(roa.ee_cert.subject_key)

    def test_roa_least_privilege(self, continental):
        with pytest.raises(IssuanceError):
            continental.issue_roa(7341, "63.17.16.0/22")  # not CB's space

    def test_renew_roa_same_name_new_serial(self, sprint, clock):
        name, old = sprint.issue_roa(1239, "63.160.0.0/12")
        clock.advance(30 * DAY)
        renewed = sprint.renew_roa(name)
        assert renewed.serial != old.serial
        assert renewed.prefixes == old.prefixes
        assert renewed.not_after > old.not_after
        assert sprint.publication_point.get(name) == renewed.to_bytes()


class TestRoaFileName:
    """A ROA may take any name but another object's file name."""

    def test_the_manifests_name_is_refused_before_anything_is_signed(self):
        world = build_figure2()
        continental = world.continental
        point = continental.publication_point
        files, serial = point.snapshot(), continental._next_serial
        with pytest.raises(IssuanceError, match="'ca.mft'"):
            continental.issue_roa(64512, "63.174.16.0/24", name=MANIFEST_FILE)
        assert point.snapshot() == files
        assert continental._next_serial == serial
        rp = RelyingParty(world.trust_anchors,
                          Fetcher(world.registry, world.clock))
        report = rp.refresh()
        assert report.run.errors() == [] and len(rp.vrps) == 8

    def test_no_other_object_name_is_taken(self, sprint, continental):
        for name in (CRL_FILE, cert_file_name(continental.certificate)):
            with pytest.raises(IssuanceError):
                sprint.issue_roa(1239, "63.160.0.0/12", name=name)
        assert sprint.issued_roas == {}

    def test_a_named_roa_is_renewed_and_rolled_under_its_name(self, sprint):
        name, _roa = sprint.issue_roa(1239, "63.160.0.0/12", name="own.roa")
        sprint.renew_roa(name)
        sprint.roll_key()
        assert sprint.roa_named(name).ee_cert.issuer_key_id == sprint.key_id
        assert set(sprint.issued_roas) == {name}


class TestManifestConsistency:
    def test_manifest_covers_exactly_published_files(self, sprint):
        sprint.issue_roa(1239, "63.160.0.0/12-13")
        point = sprint.publication_point
        manifest = parse_object(point.get(MANIFEST_FILE))
        assert isinstance(manifest, Manifest)
        on_disk = {n for n in point.names() if n != MANIFEST_FILE}
        assert manifest.file_names == on_disk
        from repro.crypto import sha256_hex

        for file_name in on_disk:
            assert manifest.hash_of(file_name) == sha256_hex(point.get(file_name))


class TestRevocation:
    def test_transparent_revocation_hits_crl(self, sprint, continental):
        serial = continental.certificate.serial
        sprint.revoke_cert(continental.certificate)
        crl = parse_object(sprint.publication_point.get(CRL_FILE))
        assert isinstance(crl, Crl)
        assert crl.is_revoked(serial)
        assert cert_file_name(continental.certificate) not in set(
            sprint.publication_point.names()
        )

    def test_revoke_foreign_cert_rejected(self, arin, sprint, continental):
        with pytest.raises(RevocationError):
            arin.revoke_cert(continental.certificate)

    def test_revoke_roa(self, sprint):
        name, roa = sprint.issue_roa(1239, "63.160.0.0/12")
        sprint.revoke_roa(name)
        crl = parse_object(sprint.publication_point.get(CRL_FILE))
        assert crl.is_revoked(roa.ee_cert.serial)
        assert sprint.publication_point.get(name) is None

    def test_revoke_unknown_roa(self, sprint):
        with pytest.raises(RevocationError):
            sprint.revoke_roa("nope.roa")

    def test_stealthy_delete_skips_crl(self, sprint):
        name, roa = sprint.issue_roa(1239, "63.160.0.0/12")
        sprint.delete_object(name)
        crl = parse_object(sprint.publication_point.get(CRL_FILE))
        assert not crl.is_revoked(roa.ee_cert.serial)  # no CRL trace
        assert sprint.publication_point.get(name) is None
        manifest = parse_object(sprint.publication_point.get(MANIFEST_FILE))
        assert name not in manifest.file_names


class TestOverwrite:
    def test_overwrite_child_cert_shrinks_resources(self, sprint, continental):
        shrunk = ResourceSet.parse("63.174.16.0/20").subtract(
            Prefix.parse("63.174.24.0/24")
        )
        new_cert = sprint.overwrite_child_cert(continental.key_id, shrunk)
        assert new_cert.ip_resources == shrunk
        assert new_cert.subject == "Continental Broadband"
        assert new_cert.subject_key_id == continental.key_id
        # Same file name: the old cert is gone, replaced in place.
        name = cert_file_name(new_cert)
        assert parse_object(sprint.publication_point.get(name)) == new_cert
        # The child engine sees its new, shrunken certificate.
        assert continental.certificate == new_cert

    def test_overwrite_requires_issued_cert(self, sprint):
        with pytest.raises(RevocationError):
            sprint.overwrite_child_cert("unknown-key-id", ResourceSet.empty())

    def test_overwrite_still_checks_own_coverage(self, sprint, continental):
        with pytest.raises(IssuanceError):
            sprint.overwrite_child_cert(
                continental.key_id, ResourceSet.parse("8.0.0.0/8")
            )


class TestKeyRollover:
    def test_rollover_preserves_products(self, arin, sprint, continental):
        name, roa = sprint.issue_roa(1239, "63.160.0.0/12-13")
        old_key_id = sprint.key_id
        sprint.roll_key()
        assert sprint.key_id != old_key_id
        # Parent reissued Sprint's RC for the new key.
        assert sprint.certificate.subject_key_id == sprint.key_id
        assert sprint.certificate.verify_signature(arin.key.public)
        # Sprint reissued the child RC and the ROA under the new key.
        assert continental.certificate.issuer_key_id == sprint.key_id
        new_roa = sprint.roa_named(name)
        assert new_roa.asn == roa.asn and new_roa.prefixes == roa.prefixes
        assert new_roa.ee_cert.issuer_key_id == sprint.key_id

    def test_trust_anchor_rollover(self, arin, sprint):
        old_key_id = arin.key_id
        arin.roll_key()
        assert arin.key_id != old_key_id
        assert arin.certificate.is_self_signed
        assert sprint.certificate.issuer_key_id == arin.key_id

    def test_rollover_publishes_one_consistent_state(self, sprint, continental):
        with sprint.deferred_publication():
            names = {sprint.issue_roa(1239, f"63.{160 + i}.0.0/16")[0]
                     for i in range(8)}
        point = sprint.publication_point
        before = point.checkpoints()
        sprint.roll_key()
        after = point.checkpoints()
        # One new checkpoint; the pre-rollover state is still there to
        # replay, and no half-rolled state was ever recorded.
        assert after[:-1] == before
        state = after[-1]
        manifest = parse_object(state[MANIFEST_FILE])
        assert manifest.issuer_key_id == sprint.key_id
        assert names <= manifest.file_names == set(state) - {MANIFEST_FILE}
        for name in names:
            assert parse_object(state[name]).ee_cert.issuer_key_id == \
                sprint.key_id


class TestDeferredPublication:
    """Bulk issuance batches per-mutation publishes into one sync."""

    def test_point_untouched_until_exit(self, sprint):
        with sprint.deferred_publication():
            name, _roa = sprint.issue_roa(1239, "63.160.0.0/12-13")
            assert sprint.publication_point.get(name) is None  # deferred
        assert sprint.publication_point.get(name) is not None  # flushed

    def test_single_publish_covers_whole_batch(self, sprint):
        with sprint.deferred_publication():
            names = [
                sprint.issue_roa(1239, f"63.{160 + i}.0.0/16")[0]
                for i in range(4)
            ]
        point_names = set(sprint.publication_point.names())
        assert set(names) <= point_names
        manifest = parse_object(sprint.publication_point.get(MANIFEST_FILE))
        assert isinstance(manifest, Manifest)
        assert set(names) <= manifest.file_names  # one manifest, all files

    def test_reentrant_publishes_once_at_outermost_exit(self, sprint):
        with sprint.deferred_publication():
            with sprint.deferred_publication():
                name, _ = sprint.issue_roa(1239, "63.160.0.0/12")
            # Inner exit must not flush while the outer batch is open.
            assert sprint.publication_point.get(name) is None
        assert sprint.publication_point.get(name) is not None

    def test_no_mutation_no_publish(self, sprint):
        before = sprint.publication_point.serial
        with sprint.deferred_publication():
            pass
        assert sprint.publication_point.serial == before
