"""Unit tests for signed objects, certificates, ROAs, CRLs, manifests."""

import pytest

from repro.crypto import KeyFactory
from repro.resources import ASN, AsnRange, AsnSet, Prefix, ResourceSet
from repro.rpki import (
    Crl,
    EECertificate,
    Manifest,
    ObjectFormatError,
    ResourceCertificate,
    Roa,
    RoaPrefix,
    build_certificate,
    build_roa,
    parse_object,
)
from ..crypto.reference_codec import encode
from .reference_build import (
    asn_set_to_data,
    build_crl,
    build_manifest,
    resource_set_to_data,
)
from .reference_parse import asn_set_from_data, resource_set_from_data

FACTORY = KeyFactory(seed=42)
ISSUER = FACTORY.next_keypair()
SUBJECT = FACTORY.next_keypair()
EE = FACTORY.next_keypair()


def make_rc(**overrides):
    defaults = dict(
        issuer_key=ISSUER,
        issuer_key_id=ISSUER.key_id,
        subject="Sprint",
        subject_key=SUBJECT.public,
        ip_resources=ResourceSet.parse("63.160.0.0/12"),
        as_resources=AsnSet([AsnRange.single(1239)]),
        serial=7,
        not_before=0,
        not_after=1000,
        sia="rsync://sprint/repo/",
        crldp="rsync://arin/repo/ca.crl",
        is_ca=True,
    )
    defaults.update(overrides)
    return build_certificate(**defaults)


def make_roa(prefix_text="63.160.0.0/12-13", asn=1239):
    roa_prefix = RoaPrefix.parse(prefix_text)
    ee_cert = make_rc(
        subject="Sprint-ee-1",
        subject_key=EE.public,
        ip_resources=ResourceSet.from_prefixes([roa_prefix.prefix]),
        as_resources=None,
        is_ca=False,
        sia="",
    )
    return build_roa(
        ee_key=EE,
        ee_cert=ee_cert,
        asn=asn,
        prefixes=[roa_prefix],
        serial=8,
        not_before=0,
        not_after=500,
    )


class TestResourceDataCodec:
    def test_resource_set_roundtrip(self):
        rs = ResourceSet.parse("63.174.16.0-63.174.23.255", "2001:db8::/32")
        assert resource_set_from_data(resource_set_to_data(rs)) == rs

    def test_asn_set_roundtrip(self):
        asns = AsnSet(map(AsnRange.single, (1239, 17054)))
        assert asn_set_from_data(asn_set_to_data(asns)) == asns

    def test_rejects_garbage(self):
        with pytest.raises(ObjectFormatError):
            resource_set_from_data("nope")
        with pytest.raises(ObjectFormatError):
            resource_set_from_data([[1, 5, 2]])  # start > end
        with pytest.raises(ObjectFormatError):
            asn_set_from_data([[1]])


class TestCertificate:
    def test_fields(self):
        rc = make_rc()
        assert isinstance(rc, ResourceCertificate)
        assert rc.subject == "Sprint"
        assert rc.serial == 7
        assert rc.ip_resources.covers(Prefix.parse("63.174.16.0/20"))
        assert rc.as_resources.covers(1239)
        assert rc.sia == "rsync://sprint/repo/"
        assert not rc.is_self_signed

    def test_signature_verifies_under_issuer(self):
        rc = make_rc()
        assert rc.verify_signature(ISSUER.public)
        assert not rc.verify_signature(SUBJECT.public)

    def test_is_current(self):
        rc = make_rc(not_before=100, not_after=200)
        assert not rc.is_current(99)
        assert rc.is_current(100)
        assert rc.is_current(200)
        assert not rc.is_current(201)

    def test_rejects_inverted_validity(self):
        with pytest.raises(ObjectFormatError):
            make_rc(not_before=10, not_after=5)

    def test_ee_cert_type(self):
        ee = make_rc(is_ca=False)
        assert isinstance(ee, EECertificate)

    def test_serialization_roundtrip(self):
        rc = make_rc()
        again = parse_object(rc.to_bytes())
        assert isinstance(again, ResourceCertificate)
        assert again == rc
        assert again.hash_hex == rc.hash_hex

    def test_self_signed_detection(self):
        ta = make_rc(subject_key=ISSUER.public)
        assert ta.is_self_signed


class TestRoaPrefix:
    def test_parse_with_maxlength(self):
        rp = RoaPrefix.parse("63.160.0.0/12-13")
        assert rp.prefix == Prefix.parse("63.160.0.0/12")
        assert rp.max_length == 13
        assert str(rp) == "63.160.0.0/12-13"

    def test_parse_bare(self):
        rp = RoaPrefix.parse("63.174.16.0/22")
        assert rp.max_length is None
        assert rp.effective_max_length == 22
        assert str(rp) == "63.174.16.0/22"

    def test_maxlength_equal_to_length_prints_bare(self):
        assert str(RoaPrefix.parse("10.0.0.0/8-8")) == "10.0.0.0/8"

    def test_rejects_bad_maxlength(self):
        with pytest.raises(ObjectFormatError):
            RoaPrefix(Prefix.parse("10.0.0.0/16"), 8)
        with pytest.raises(ObjectFormatError):
            RoaPrefix(Prefix.parse("10.0.0.0/16"), 33)


class TestRoa:
    def test_fields(self):
        roa = make_roa()
        assert roa.asn == ASN(1239)
        assert roa.prefixes[0].max_length == 13
        assert roa.describe() == "(63.160.0.0/12-13, AS1239)"

    def test_embedded_ee_cert(self):
        roa = make_roa()
        assert roa.ee_cert.subject == "Sprint-ee-1"
        assert roa.verify_signature(roa.ee_cert.subject_key)

    def test_resources(self):
        roa = make_roa()
        assert roa.resources() == ResourceSet.parse("63.160.0.0/12")

    def test_roundtrip(self):
        roa = make_roa()
        again = parse_object(roa.to_bytes())
        assert isinstance(again, Roa)
        assert again == roa
        assert again.ee_cert == roa.ee_cert

    def test_requires_a_prefix(self):
        roa = make_roa()
        with pytest.raises(ObjectFormatError):
            build_roa(
                ee_key=EE,
                ee_cert=roa.ee_cert,
                asn=1,
                prefixes=[],
                serial=1,
                not_before=0,
                not_after=1,
            )


class TestCrl:
    def test_revocation_lookup(self):
        crl = build_crl(
            issuer_key=ISSUER,
            issuer_key_id=ISSUER.key_id,
            revoked_serials={3, 9},
            serial=1,
            this_update=10,
            next_update=20,
        )
        assert crl.is_revoked(3)
        assert not crl.is_revoked(4)
        assert crl.this_update == 10 and crl.next_update == 20

    def test_roundtrip(self):
        crl = build_crl(
            issuer_key=ISSUER,
            issuer_key_id=ISSUER.key_id,
            revoked_serials={5},
            serial=2,
            this_update=0,
            next_update=100,
        )
        again = parse_object(crl.to_bytes())
        assert isinstance(again, Crl)
        assert again.revoked_serials == (5,)


class TestManifest:
    def test_entries(self):
        mft = build_manifest(
            issuer_key=ISSUER,
            issuer_key_id=ISSUER.key_id,
            entries={"a.roa": "ff" * 32, "b.cer": "aa" * 32},
            serial=1,
            this_update=0,
            next_update=100,
        )
        assert mft.file_names == {"a.roa", "b.cer"}
        assert mft.hash_of("a.roa") == "ff" * 32
        assert mft.hash_of("missing") is None

    def test_roundtrip(self):
        mft = build_manifest(
            issuer_key=ISSUER,
            issuer_key_id=ISSUER.key_id,
            entries={"x.roa": "00" * 32},
            serial=3,
            this_update=5,
            next_update=6,
        )
        again = parse_object(mft.to_bytes())
        assert isinstance(again, Manifest)
        assert again.entries == mft.entries


class TestParseObject:
    def test_corruption_never_slips_through(self):
        # A flipped bit either breaks the format (parse raises) or lands in
        # a payload value, in which case the signature must fail — at no
        # flip position does a corrupted object parse AND verify.
        original = make_rc().to_bytes()
        for position in range(0, len(original), max(1, len(original) // 40)):
            blob = bytearray(original)
            blob[position] ^= 0xFF
            try:
                parsed = parse_object(bytes(blob))
            except ObjectFormatError:
                continue
            assert not parsed.verify_signature(ISSUER.public)

    def test_rejects_truncation(self):
        blob = make_rc().to_bytes()
        with pytest.raises(ObjectFormatError):
            parse_object(blob[: len(blob) // 2])

    def test_rejects_unknown_type(self):
        blob = encode([{"type": "alien"}, b"sig"])
        with pytest.raises(ObjectFormatError):
            parse_object(blob)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ObjectFormatError):
            parse_object(encode({"type": "rc"}))
        with pytest.raises(ObjectFormatError):
            parse_object(encode([1, 2, 3]))

    def test_tamper_payload_breaks_signature(self):
        rc = make_rc()
        payload = dict(rc.payload)
        payload["subject"] = "Evil"
        tampered = ResourceCertificate(encode(payload), rc.signature)
        assert not tampered.verify_signature(ISSUER.public)
