"""Tests for Ghostbusters records (RFC 6493) end to end."""

import pytest

from repro.modelgen import build_figure2
from repro.repository import Fetcher
from repro.rp import RelyingParty
from repro.rpki import (
    GHOSTBUSTERS_FILE,
    GhostbustersRecord,
    ObjectFormatError,
    parse_object,
)

CONTACT = {
    "fn": "Continental Broadband NOC",
    "org": "Continental Broadband",
    "email": "noc@continental.example",
    "tel": "+1-555-0117",
}


@pytest.fixture
def world():
    return build_figure2()


class TestRecord:
    def test_publish_and_parse(self, world):
        record = world.continental.set_contact(CONTACT)
        assert record.full_name == "Continental Broadband NOC"
        assert record.email == "noc@continental.example"
        blob = world.continental.publication_point.get(GHOSTBUSTERS_FILE)
        again = parse_object(blob)
        assert isinstance(again, GhostbustersRecord)
        assert again.vcard == CONTACT

    def test_requires_fn(self, world):
        with pytest.raises(ObjectFormatError):
            world.continental.set_contact({"email": "x@y.example"})

    def test_rejects_unknown_fields(self, world):
        with pytest.raises(ObjectFormatError):
            world.continental.set_contact({"fn": "x", "twitter": "@x"})

    def test_manifest_covers_record(self, world):
        world.continental.set_contact(CONTACT)
        from repro.rpki import MANIFEST_FILE

        manifest = parse_object(
            world.continental.publication_point.get(MANIFEST_FILE)
        )
        assert GHOSTBUSTERS_FILE in manifest.file_names

    def test_replacing_contact_overwrites(self, world):
        world.continental.set_contact(CONTACT)
        world.continental.set_contact({"fn": "New NOC"})
        blob = world.continental.publication_point.get(GHOSTBUSTERS_FILE)
        assert parse_object(blob).full_name == "New NOC"


class TestValidation:
    def test_rp_validates_contact(self, world):
        world.continental.set_contact(CONTACT)
        rp = RelyingParty(
            world.trust_anchors, Fetcher(world.registry, world.clock),
        )
        report = rp.refresh()
        contacts = report.run.contacts
        assert "rsync://continental.example/repo/" in contacts
        assert contacts["rsync://continental.example/repo/"].email == (
            "noc@continental.example"
        )
        # Contacts never create VRPs.
        assert len(rp.vrps) == 8

    def test_forged_contact_rejected(self, world):
        record = world.continental.set_contact(CONTACT)
        # Republish the record under Sprint's point, where the issuing key
        # does not match — it must not validate there.
        world.sprint.publication_point.put(
            GHOSTBUSTERS_FILE, record.to_bytes()
        )
        rp = RelyingParty(
            world.trust_anchors, Fetcher(world.registry, world.clock),
        )
        report = rp.refresh()
        assert "rsync://sprint.example/repo/" not in report.run.contacts
        assert report.run.has_issue("gbr-bad-signature")

    def test_expired_contact_dropped(self, world):
        from repro.simtime import YEAR

        world.continental.set_contact(CONTACT, validity=3600)
        rp = RelyingParty(
            world.trust_anchors, Fetcher(world.registry, world.clock),
        )
        world.clock.advance(7200)
        # Keep the rest of the RPKI alive by renewing nothing: the ROAs are
        # still current (90 days), only the contact expired.
        report = rp.refresh()
        assert report.run.contacts == {}
        assert report.run.has_issue("gbr-expired")

    def test_contact_survives_whack_of_other_objects(self, world):
        """The contact is exactly what a whacking victim needs to stay
        reachable — verify whacking a ROA does not disturb it."""
        from repro.core import execute_whack, plan_whack

        world.continental.set_contact(CONTACT)
        execute_whack(plan_whack(world.sprint, world.target20,
                                 world.continental))
        rp = RelyingParty(
            world.trust_anchors, Fetcher(world.registry, world.clock),
        )
        report = rp.refresh()
        assert "rsync://continental.example/repo/" in report.run.contacts
