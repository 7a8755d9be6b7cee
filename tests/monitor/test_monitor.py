"""Tests for snapshots, diffs, alert classification, churn, and detection."""

import pytest

from repro.core import execute_whack, plan_whack
from repro.crypto import KeyFactory, key_id_of
from repro.modelgen import build_figure2
from repro.monitor import (
    AlertKind,
    ChurnConfig,
    ChurnEngine,
    DetectionExperiment,
    analyze,
    diff_snapshots,
    take_snapshot,
)
from repro.simtime import HOUR

from ..rpki.reference_build import build_crl


@pytest.fixture
def world():
    return build_figure2()


def snap(world):
    return take_snapshot(world.registry, world.clock.now,
                         trust_anchors=world.trust_anchors)


def diff_and_alerts(world, before):
    after = snap(world)
    diff = diff_snapshots(before, after)
    return diff, analyze(diff, before, after), after


class TestSnapshot:
    def test_full_inventory(self, world):
        snapshot = snap(world)
        assert len(snapshot.roas()) == 8
        assert len(snapshot.certs()) == 3  # Sprint, ETB, CB (TA not published)
        assert len(snapshot.crls()) == 4
        assert len(snapshot.manifests()) == 4
        assert not snapshot.unparsable

    def test_payload_index(self, world):
        index = snap(world).roa_payload_index()
        assert "(63.174.16.0/20, AS17054)" in index
        assert len(index) == 8

    def test_unparsable_tracked(self, world):
        world.sprint.publication_point.put("junk.bin", b"garbage")
        snapshot = snap(world)
        assert ("rsync://sprint.example/repo/", "junk.bin") in snapshot.unparsable


class TestDiff:
    def test_empty_diff(self, world):
        before = snap(world)
        diff = diff_snapshots(before, snap(world))
        assert diff.is_empty

    def test_added_roa(self, world):
        before = snap(world)
        world.sprint.issue_roa(1239, "63.163.0.0/16")
        diff, _, _ = diff_and_alerts(world, before)
        assert len(diff.added_roas()) == 1

    def test_removed_roa(self, world):
        before = snap(world)
        world.continental.delete_object(world.target22_name)
        diff, _, _ = diff_and_alerts(world, before)
        assert len(diff.removed_roas()) == 1

    def test_cert_shrink_detected(self, world):
        before = snap(world)
        from repro.resources import Prefix

        shrunk = world.continental.certificate.ip_resources.subtract(
            Prefix.parse("63.174.24.0/24")
        )
        world.sprint.overwrite_child_cert(world.continental.key_id, shrunk)
        diff, _, _ = diff_and_alerts(world, before)
        changes = diff.shrunken_certs()
        assert len(changes) == 1
        assert str(changes[0].lost_resources) == "{63.174.24.0/24}"
        assert (changes[0].before.subject_key_id
                == changes[0].after.subject_key_id)

    def test_newly_revoked(self, world):
        before = snap(world)
        world.continental.revoke_roa(world.target22_name)
        diff, _, _ = diff_and_alerts(world, before)
        assert diff.newly_revoked["rsync://continental.example/repo/"]


class TestAlerts:
    def test_transparent_revocation(self, world):
        before = snap(world)
        world.continental.revoke_roa(world.target22_name)
        _, alerts, _ = diff_and_alerts(world, before)
        kinds = [a.kind for a in alerts]
        assert AlertKind.TRANSPARENT_REVOCATION in kinds
        assert AlertKind.STEALTHY_DELETION not in kinds

    def test_stealthy_deletion(self, world):
        before = snap(world)
        world.continental.delete_object(world.target22_name)
        _, alerts, _ = diff_and_alerts(world, before)
        stealthy = [a for a in alerts if a.kind is AlertKind.STEALTHY_DELETION]
        assert len(stealthy) == 1
        assert "63.174.16.0/22" in stealthy[0].subject
        assert stealthy[0].is_suspicious

    @pytest.mark.parametrize("decoy", [False, True])
    def test_decoy_crl_does_not_hide_a_stealthy_deletion(self, world, decoy):
        # Sprint deletes one of its ROAs with no CRL entry.  A CRL under
        # another file name, signed by an unrelated key and listing that
        # ROA's EE serial, is not the point's CRL: the relying party reads
        # only ca.crl, and so does the monitor.
        sprint = world.sprint
        name, roa = next(iter(sprint.issued_roas.items()))
        before = snap(world)
        sprint.delete_object(name)
        if decoy:
            stranger = KeyFactory(seed=99).next_keypair()
            crl = build_crl(
                issuer_key=stranger, issuer_key_id=key_id_of(stranger.public),
                revoked_serials={roa.ee_cert.serial}, serial=1,
                this_update=world.clock.now,
                next_update=world.clock.now + HOUR,
            )
            sprint.publication_point.put("zz.crl", crl.to_bytes())
        _, alerts, _ = diff_and_alerts(world, before)
        kinds = [a.kind for a in alerts if a.subject == roa.describe()]
        assert kinds == [AlertKind.STEALTHY_DELETION]

    def test_forged_ca_crl_does_not_hide_a_stealthy_deletion(self, world):
        # The same deletion, and in place of Sprint's ca.crl one that
        # names Sprint's key and lists the ROA's EE serial but was signed
        # by another key.  It does not verify under the Sprint certificate
        # the snapshot holds, so the relying party would refuse it
        # (crl-bad-signature), and so does the monitor.
        sprint = world.sprint
        name, roa = next(iter(sprint.issued_roas.items()))
        before = snap(world)
        sprint.delete_object(name)
        forger = KeyFactory(seed=99).next_keypair()
        forged = build_crl(
            issuer_key=forger, issuer_key_id=sprint.key_id,
            revoked_serials={roa.ee_cert.serial}, serial=2,
            this_update=world.clock.now, next_update=world.clock.now + HOUR,
        )
        sprint.publication_point.put("ca.crl", forged.to_bytes())
        _, alerts, after = diff_and_alerts(world, before)
        assert after.records[(str(sprint.publication_point.uri), "ca.crl")
                             ].obj.is_revoked(roa.ee_cert.serial)
        assert str(sprint.publication_point.uri) not in after.point_crls
        kinds = [a.kind for a in alerts if a.subject == roa.describe()]
        assert kinds == [AlertKind.STEALTHY_DELETION]

    def test_a_second_certificate_for_the_point_revokes_nothing_of_its_owner(
            self, world):
        # ARIN mints a second certificate naming Sprint's point, for a key
        # ARIN holds, and signs a ca.crl with that key listing the deleted
        # ROA's EE serial.  That CRL verifies, but a serial is revoked only
        # by the key that issued it, and Sprint's key issued this one.
        sprint = world.sprint
        name, roa = next(iter(sprint.issued_roas.items()))
        rogue = KeyFactory(seed=99).next_keypair()
        world.arin._issue_rc(
            subject=sprint.handle, subject_public_key=rogue.public,
            ip_resources=sprint.resources, as_resources=None,
            sia=str(sprint.publication_point.uri), validity=HOUR,
        )
        before = snap(world)
        sprint.delete_object(name)
        forged = build_crl(
            issuer_key=rogue, issuer_key_id=key_id_of(rogue.public),
            revoked_serials={roa.ee_cert.serial}, serial=2,
            this_update=world.clock.now, next_update=world.clock.now + HOUR,
        )
        sprint.publication_point.put("ca.crl", forged.to_bytes())
        _, alerts, after = diff_and_alerts(world, before)
        assert after.point_crls[str(sprint.publication_point.uri)] == forged
        kinds = [a.kind for a in alerts if a.subject == roa.describe()]
        assert kinds == [AlertKind.STEALTHY_DELETION]

    def test_a_trust_anchors_revocation_is_transparent(self, world):
        # No repository publishes ARIN's self-signed certificate; the
        # monitor has it as a relying party does, from its trust anchors,
        # and so believes ARIN's own ca.crl.
        name, roa = world.arin.issue_roa(64500, "63.1.0.0/16")
        before = snap(world)
        world.arin.revoke_roa(name)
        _, alerts, after = diff_and_alerts(world, before)
        assert str(world.arin.publication_point.uri) in after.point_crls
        kinds = [a.kind for a in alerts if a.subject == roa.describe()]
        assert kinds == [AlertKind.TRANSPARENT_REVOCATION]

    def test_renewal_is_info(self, world):
        before = snap(world)
        world.continental.renew_roa(world.target22_name)
        _, alerts, _ = diff_and_alerts(world, before)
        renewals = [a for a in alerts if a.kind is AlertKind.RENEWAL]
        assert len(renewals) == 1
        assert not renewals[0].is_suspicious

    def test_rc_shrink_names_whacked_roas(self, world):
        before = snap(world)
        plan = plan_whack(world.sprint, world.target20, world.continental)
        execute_whack(plan)
        _, alerts, _ = diff_and_alerts(world, before)
        shrinks = [a for a in alerts if a.kind is AlertKind.RC_SHRUNK]
        assert len(shrinks) == 1
        assert "63.174.16.0/20, AS17054" in shrinks[0].detail

    def test_make_before_break_fingerprint(self, world):
        """The Figure 3 attack should light up the critical alert."""
        before = snap(world)
        plan = plan_whack(world.sprint, world.target22, world.continental)
        execute_whack(plan)
        _, alerts, _ = diff_and_alerts(world, before)
        reissues = [a for a in alerts if a.kind is AlertKind.SUSPICIOUS_REISSUE]
        assert len(reissues) == 1
        assert reissues[0].subject == "(63.174.16.0/20, AS17054)"
        assert reissues[0].severity == "critical"

    def test_no_alerts_on_quiet_world(self, world):
        before = snap(world)
        _, alerts, _ = diff_and_alerts(world, before)
        assert alerts == []


class TestChurn:
    def test_deterministic(self, world):
        engine_a = ChurnEngine(world.authorities(), seed=5)
        events_a = [str(e) for e in engine_a.tick()]
        world_b = build_figure2()
        engine_b = ChurnEngine(world_b.authorities(), seed=5)
        events_b = [str(e) for e in engine_b.tick()]
        assert events_a == events_b

    def test_new_roas_avoid_occupied_space(self, world):
        config = ChurnConfig(renew_rate=0, new_roa_rate=1.0, retire_rate=0)
        engine = ChurnEngine([world.sprint], config=config, seed=3)
        for _ in range(5):
            engine.tick()
        new_roas = [e for e in engine.events if e.action == "new-roa"]
        assert new_roas
        # None of them overlaps Continental's or ETB's delegated space or
        # Sprint's pre-existing ROAs.
        from repro.resources import Prefix, ResourceSet

        occupied = ResourceSet.parse(
            "63.174.16.0/20", "63.168.0.0/16", "63.161.0.0/16", "63.162.0.0/16"
        )
        for event in new_roas:
            prefix_text = event.subject.split(",")[0].strip("(")
            assert not occupied.overlaps(Prefix.parse(prefix_text))

    def test_retirement_styles(self, world):
        config = ChurnConfig(
            renew_rate=0, new_roa_rate=0, retire_rate=1.0, sloppy_delete_prob=1.0
        )
        engine = ChurnEngine([world.continental], config=config, seed=1)
        events = engine.tick()
        assert events and events[0].action == "sloppy-retire"


class TestDetectionExperiment:
    def test_whack_campaign_in_churn(self, world):
        churn = ChurnEngine(
            world.authorities(),
            config=ChurnConfig(sloppy_delete_prob=0.3),
            seed=11,
        )
        experiment = DetectionExperiment(
            registry=world.registry, trust_anchors=world.trust_anchors,
            churn=churn, clock=world.clock,
        )

        def attack():
            plan = plan_whack(world.sprint, world.target20, world.continental)
            execute_whack(plan)
            return [world.target20.describe()]

        for epoch in range(6):
            experiment.run_epoch(attack if epoch == 3 else None)

        score = experiment.score()
        # The shrink-based whack is always caught (recall 1.0 for this
        # attack class)...
        assert score.recall == 1.0
        assert score.true_positives == 1
        # ...while sloppy churn may or may not have fired false alarms;
        # precision is still defined and bounded.
        assert 0.0 <= score.precision <= 1.0
        assert "recall" in score.render()


class TestByzantineDetectors:
    """Cross-snapshot detection of Byzantine serving."""

    def test_manifest_replay_detected(self, world):
        from repro.monitor import detect_manifest_replay
        from repro.simtime import HOUR

        before = snap(world)
        world.clock.advance(HOUR)
        world.continental.publish()
        after = snap(world)
        # Forward in time: no alert.  A monitor that later sees the OLD
        # state again (the replay) alarms on the regression.
        assert detect_manifest_replay(before, after) == []
        alerts = detect_manifest_replay(after, before)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.kind is AlertKind.MANIFEST_REPLAY
        assert alert.point_uri == "rsync://continental.example/repo/"
        assert "backwards" in alert.detail
