"""Tests for Ghostbusters records (RFC 6493) end to end.

No authority publishes a record, so each one here is made and put on a
point by ``forge.py``, as whoever writes the repository could; the
relying party judges it like any other object it finds.
"""

import pytest

from repro.modelgen import build_figure2
from repro.repository import Fetcher
from repro.rp import RelyingParty
from repro.rpki import (
    CRL_FILE,
    MANIFEST_FILE,
    GhostbustersRecord,
    ObjectFormatError,
    parse_object,
)

from .forge import (
    GHOSTBUSTERS_FILE,
    crl_bytes,
    forge_contact,
    publish_contact,
    publish_forged,
)

CONTACT = {
    "fn": "Continental Broadband NOC",
    "org": "Continental Broadband",
    "email": "noc@continental.example",
    "tel": "+1-555-0117",
}
CONTINENTAL = "rsync://continental.example/repo/"


@pytest.fixture
def world():
    return build_figure2()


def refresh(world):
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock),
    )
    return rp, rp.refresh()


class TestRecord:
    def test_publish_and_parse(self, world):
        record = publish_contact(world.continental, CONTACT)
        assert record.full_name == "Continental Broadband NOC"
        assert record.vcard["email"] == "noc@continental.example"
        blob = world.continental.publication_point.get(GHOSTBUSTERS_FILE)
        again = parse_object(blob)
        assert isinstance(again, GhostbustersRecord)
        assert again.vcard == CONTACT

    def test_requires_fn(self, world):
        record = forge_contact(world.continental, {"email": "x@y.example"})
        with pytest.raises(ObjectFormatError):
            parse_object(record.to_bytes())

    def test_rejects_unknown_fields(self, world):
        record = forge_contact(world.continental, {"fn": "x", "twitter": "@x"})
        with pytest.raises(ObjectFormatError):
            parse_object(record.to_bytes())

    def test_manifest_covers_record(self, world):
        publish_contact(world.continental, CONTACT)
        manifest = parse_object(
            world.continental.publication_point.get(MANIFEST_FILE)
        )
        assert GHOSTBUSTERS_FILE in manifest.file_names
        _rp, report = refresh(world)
        assert report.run.issues == []

    def test_replacing_contact_overwrites(self, world):
        publish_contact(world.continental, CONTACT)
        publish_contact(world.continental, {"fn": "New NOC"})
        blob = world.continental.publication_point.get(GHOSTBUSTERS_FILE)
        assert parse_object(blob).full_name == "New NOC"
        _rp, report = refresh(world)
        assert report.run.contacts[CONTINENTAL].full_name == "New NOC"


class TestValidation:
    def test_rp_validates_contact(self, world):
        publish_contact(world.continental, CONTACT)
        rp, report = refresh(world)
        contacts = report.run.contacts
        assert CONTINENTAL in contacts
        assert contacts[CONTINENTAL].vcard["email"] == (
            "noc@continental.example"
        )
        # Contacts never create VRPs.
        assert len(rp.vrps) == 8
        # A warm refresh keeps the contact the cold one judged.
        assert rp.refresh().run.contacts == contacts

    def test_forged_contact_rejected(self, world):
        record = forge_contact(world.continental, CONTACT)
        # Publish the record under Sprint's point, where the issuing key
        # does not match — it must not validate there.
        world.sprint.publication_point.put(
            GHOSTBUSTERS_FILE, record.to_bytes()
        )
        _rp, report = refresh(world)
        assert "rsync://sprint.example/repo/" not in report.run.contacts
        assert report.run.has_issue("gbr-bad-signature")

    def test_expired_contact_dropped(self, world):
        publish_contact(world.continental, CONTACT, validity=3600)
        rp = RelyingParty(
            world.trust_anchors, Fetcher(world.registry, world.clock),
        )
        assert CONTINENTAL in rp.refresh().run.contacts
        world.clock.advance(7200)
        # Keep the rest of the RPKI alive by renewing nothing: the ROAs are
        # still current (90 days), only the contact expired.
        report = rp.refresh()
        assert report.run.contacts == {}
        assert report.run.has_issue("gbr-expired")

    def test_revoked_contact_dropped(self, world):
        record = forge_contact(world.continental, CONTACT)
        publish_forged(world.continental, {
            GHOSTBUSTERS_FILE: record.to_bytes(),
            CRL_FILE: crl_bytes(world, [record.ee_cert.serial]),
        })
        _rp, report = refresh(world)
        assert report.run.contacts == {}
        assert report.run.has_issue("gbr-revoked")

    def test_contact_survives_whack_of_other_objects(self, world):
        """The contact is exactly what a whacking victim needs to stay
        reachable — verify whacking a ROA does not disturb it."""
        from repro.core import execute_whack, plan_whack

        publish_contact(world.continental, CONTACT)
        execute_whack(plan_whack(world.sprint, world.target20,
                                 world.continental))
        _rp, report = refresh(world)
        assert CONTINENTAL in report.run.contacts
