"""Unit and integration tests for path validation and the relying party.

Uses the Figure 2 world throughout: ARIN -> Sprint -> {ETB, Continental}.
"""

import pytest

from repro.modelgen import build_figure2
from repro.repository import FaultInjector, FaultKind, Fetcher
from repro.resources import Prefix, ResourceSet
from repro.rp import (
    PathValidator,
    RelyingParty,
    RouteValidity,
    Severity,
    VRP,
)
from repro.rpki import MANIFEST_FILE, cert_file_name
from repro.simtime import DAY, YEAR


@pytest.fixture
def world():
    return build_figure2()


def make_rp(world, **kwargs):
    fetcher = Fetcher(world.registry, world.clock,
                      faults=kwargs.pop("faults", None))
    return RelyingParty(world.trust_anchors, fetcher, **kwargs)


class TestHappyPath:
    def test_full_validation(self, world):
        rp = make_rp(world)
        report = rp.refresh()
        assert len(rp.vrps) == 8
        assert report.run.errors() == []
        # ARIN + Sprint + ETB + Continental CA certs validated.
        assert len(report.run.validated_cas) == 4
        assert report.run.roa_count == 8

    def test_discovery_is_iterative(self, world):
        rp = make_rp(world)
        report = rp.refresh()
        # ARIN first, then Sprint, then {ETB, Continental}: 3 rounds
        # (the 4th round discovers nothing new and doesn't happen).
        assert report.rounds == 3
        fetched = {f.uri for f in report.fetches}
        assert "rsync://continental.example/repo/" in fetched

    def test_vrps_match_issued_roas(self, world):
        rp = make_rp(world)
        rp.refresh()
        assert VRP.parse("63.174.16.0/20", 17054) in rp.vrps
        assert VRP.parse("63.161.0.0/16-24", 1239) in rp.vrps

    def test_classification_surface(self, world):
        rp = make_rp(world)
        rp.refresh()
        assert rp.classify_parts("63.174.16.0/20", 17054) is RouteValidity.VALID
        assert rp.classify_parts("63.160.0.0/12", 1239) is RouteValidity.UNKNOWN

    def test_empty_before_first_refresh(self, world):
        rp = make_rp(world)
        assert len(rp.vrps) == 0
        assert rp.classify_parts("63.174.16.0/20", 17054) is RouteValidity.UNKNOWN


class TestCryptoRejections:
    def test_forged_roa_rejected(self, world):
        """An object signed by the wrong key never yields VRPs."""
        from repro.crypto import KeyFactory
        from repro.resources import ResourceSet as RS
        from repro.rpki import build_certificate, build_roa
        from repro.rpki.roa import RoaPrefix

        rogue_factory = KeyFactory(seed=666)
        rogue = rogue_factory.next_keypair()
        rogue_ee = rogue_factory.next_keypair()
        ee_cert = build_certificate(
            issuer_key=rogue,
            issuer_key_id=world.sprint.key_id,  # lies about its issuer
            subject="rogue-ee",
            subject_key=rogue_ee.public,
            ip_resources=RS.parse("63.160.0.0/12"),
            serial=999,
            not_before=0,
            not_after=YEAR,
            sia="",
            crldp="",
            is_ca=False,
        )
        roa = build_roa(
            ee_key=rogue_ee,
            ee_cert=ee_cert,
            asn=666,
            prefixes=[RoaPrefix.parse("63.160.0.0/12")],
            serial=1000,
            not_before=0,
            not_after=YEAR,
        )
        world.sprint.publication_point.put("evil.roa", roa.to_bytes())
        rp = make_rp(world)
        report = rp.refresh()
        assert VRP.parse("63.160.0.0/12", 666) not in rp.vrps
        assert report.run.has_issue("ee-bad-signature")

    def test_overclaiming_child_cert_rejected(self, world):
        """A cert claiming resources its issuer lacks is discarded, subtree
        and all (RFC 6487 coverage check)."""
        from repro.rpki import build_certificate

        bogus_key = world.key_factory.next_keypair()
        bogus = build_certificate(
            issuer_key=world.sprint.key,
            issuer_key_id=world.sprint.key_id,
            subject="Overclaimer",
            subject_key=bogus_key.public,
            ip_resources=ResourceSet.parse("8.0.0.0/8"),  # not Sprint's
            serial=555,
            not_before=0,
            not_after=YEAR,
            sia="rsync://sprint.example/repo/overclaimer/",
            crldp="",
            is_ca=True,
        )
        world.sprint.publication_point.put("overclaimer.cer", bogus.to_bytes())
        rp = make_rp(world)
        report = rp.refresh()
        assert report.run.has_issue("overclaim")
        assert all(c.subject != "Overclaimer" for c in report.run.validated_cas)

    def test_expired_roa_rejected(self, world):
        rp = make_rp(world)
        world.clock.advance(91 * DAY)  # past the 90-day ROA validity
        report = rp.refresh()
        assert len(rp.vrps) == 0
        assert report.run.has_issue("expired")

    def test_renewal_restores_validity(self, world):
        rp = make_rp(world)
        world.clock.advance(91 * DAY)
        for ca in world.authorities():
            for name in list(ca.issued_roas):
                ca.renew_roa(name)
        rp.refresh()
        assert len(rp.vrps) == 8

    def test_expired_trust_anchor(self, world):
        rp = make_rp(world)
        world.clock.advance(3 * YEAR)
        report = rp.refresh()
        assert report.run.has_issue("ta-expired")
        assert len(rp.vrps) == 0


class TestRevocationEffects:
    def test_revoked_cert_kills_subtree(self, world):
        world.sprint.revoke_cert(world.continental.certificate)
        rp = make_rp(world)
        report = rp.refresh()
        # All five Continental ROAs are gone; Sprint's and ETB's remain.
        assert len(rp.vrps) == 3
        # The cert file itself was withdrawn; nothing left to flag revoked.
        assert not report.run.has_issue("revoked")

    def test_crl_rejects_republished_old_cert(self, world):
        """Revocation + an attacker re-inserting the old cert file: the CRL
        is what actually stops it."""
        old_cert = world.continental.certificate
        world.sprint.revoke_cert(old_cert)
        # Adversary (or stale mirror) puts the withdrawn file back.
        world.sprint.publication_point.put(
            cert_file_name(old_cert), old_cert.to_bytes()
        )
        rp = make_rp(world)
        report = rp.refresh()
        assert report.run.has_issue("revoked")
        assert len(rp.vrps) == 3

    def test_stealthy_delete_no_revocation_trace(self, world):
        world.continental.delete_object(world.target22_name)
        rp = make_rp(world)
        report = rp.refresh()
        assert len(rp.vrps) == 7
        assert not report.run.has_issue("revoked")
        assert report.run.errors() == []  # perfectly clean-looking


class TestManifestPolicies:
    def corrupt_roa_fetch(self, world):
        faults = FaultInjector(seed=1)
        faults.schedule(
            FaultKind.CORRUPT,
            "rsync://continental.example/repo/",
            file_name=world.target20_name,
        )
        return faults

    def test_loose_mode_uses_what_validates(self, world):
        rp = make_rp(world, faults=self.corrupt_roa_fetch(world))
        report = rp.refresh()
        # The corrupted ROA is lost, everything else survives.
        assert len(rp.vrps) == 7
        assert report.run.has_issue("hash-mismatch") or report.run.has_issue(
            "parse-failed"
        )

    def test_strict_mode_discards_whole_point(self, world):
        rp = make_rp(
            world, faults=self.corrupt_roa_fetch(world), strict_manifests=True
        )
        report = rp.refresh()
        # All five Continental ROAs gone, not just the corrupted one.
        assert len(rp.vrps) == 3
        assert report.run.has_issue("point-discarded")

    def test_dropped_file_flagged_by_manifest(self, world):
        faults = FaultInjector()
        faults.schedule(
            FaultKind.DROP,
            "rsync://continental.example/repo/",
            file_name=world.target22_name,
        )
        rp = make_rp(world, faults=faults)
        report = rp.refresh()
        assert report.run.has_issue("manifest-file-missing")
        assert len(rp.vrps) == 7

    def test_extra_file_flagged(self, world):
        world.sprint.publication_point.put("stray.roa", b"not-an-object")
        rp = make_rp(world)
        report = rp.refresh()
        assert report.run.has_issue("manifest-file-extra")
        assert report.run.has_issue("parse-failed")
        assert len(rp.vrps) == 8  # stray junk changes nothing

    def test_stale_manifest_warning(self, world):
        rp = make_rp(world)
        world.clock.advance(2 * DAY)  # beyond the 1-day manifest window
        report = rp.refresh()
        assert report.run.has_issue("manifest-stale")

    def test_validator_requires_anchor(self):
        with pytest.raises(ValueError):
            PathValidator([])


class TestUnreachableRepository:
    def test_unreachable_point_missing_error(self, world):
        fetcher = Fetcher(
            world.registry,
            world.clock,
            reachability=lambda locator: locator.host_prefix
            != Prefix.parse("63.174.23.0/32"),
        )
        rp = RelyingParty(world.trust_anchors, fetcher)
        report = rp.refresh()
        assert len(rp.vrps) == 3  # Continental's point never arrived
        assert report.run.has_issue("point-missing")

    def test_stale_cache_survives_later_outage(self, world):
        reachable = {"ok": True}
        fetcher = Fetcher(
            world.registry,
            world.clock,
            reachability=lambda locator: reachable["ok"],
        )
        rp = RelyingParty(world.trust_anchors, fetcher)
        rp.refresh()
        assert len(rp.vrps) == 8
        reachable["ok"] = False
        world.clock.advance(DAY // 2)
        rp.refresh()
        # keep_stale=True: the cached copies still validate.
        assert len(rp.vrps) == 8

    def test_drop_stale_policy_loses_everything(self, world):
        reachable = {"ok": True}
        fetcher = Fetcher(
            world.registry,
            world.clock,
            reachability=lambda locator: reachable["ok"],
        )
        rp = RelyingParty(
            world.trust_anchors, fetcher, keep_stale=False
        )
        rp.refresh()
        reachable["ok"] = False
        rp.refresh()
        assert len(rp.vrps) == 0


class TestSeverityPlumbing:
    def test_issue_str(self, world):
        rp = make_rp(world)
        world.clock.advance(2 * DAY)
        report = rp.refresh()
        texts = [str(i) for i in report.run.issues]
        assert any("manifest-stale" in t for t in texts)

    def test_warnings_vs_errors_partition(self, world):
        rp = make_rp(world)
        world.clock.advance(91 * DAY)
        report = rp.refresh()
        assert set(report.run.warnings()) | set(report.run.errors()) == set(
            report.run.issues
        )
        assert all(i.severity is Severity.ERROR for i in report.run.errors())
