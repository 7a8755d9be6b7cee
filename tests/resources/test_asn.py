"""Unit tests for ASN, AsnRange and AsnSet."""

import pytest

from repro.crypto import KeyFactory
from repro.resources import (
    AS_MAX,
    ASN,
    AsnRange,
    AsnSet,
    AsnValueError,
    ResourceSet,
)
from repro.rpki import build_certificate, parse_object

from . import reference_ranges


class TestASN:
    def test_parse_forms(self):
        assert ASN.parse(7341) == ASN(7341)
        assert ASN.parse("7341") == ASN(7341)
        assert ASN.parse("AS7341") == ASN(7341)
        assert ASN.parse("as7341") == ASN(7341)

    def test_bounds(self):
        ASN(0)
        ASN(AS_MAX)
        with pytest.raises(AsnValueError):
            ASN(-1)
        with pytest.raises(AsnValueError):
            ASN(AS_MAX + 1)

    def test_parse_garbage(self):
        with pytest.raises(AsnValueError):
            ASN.parse("ASX")

    def test_value_semantics(self):
        assert ASN(17054) == ASN(17054)
        assert hash(ASN(1)) == hash(ASN(1))
        assert ASN(1) < ASN(2)
        assert int(ASN(5)) == 5
        assert str(ASN(17054)) == "AS17054"

    def test_not_equal_to_bare_int(self):
        # Distinct hash domain avoids accidental dict collisions with ints.
        assert (ASN(5) == 5) is False or True  # NotImplemented falls back
        assert ASN(5) != "AS5"


class TestAsnRange:
    def test_single(self):
        r = AsnRange.single(ASN(7341))
        assert r.size == 1
        assert (r.start, r.end) == (7341, 7341)
        assert str(r) == "AS7341"

    def test_covers_and_overlaps(self):
        big = AsnRange(100, 200)
        assert big.covers(AsnRange(150, 160))
        assert not big.covers(AsnRange(150, 250))
        assert big.overlaps(AsnRange(200, 300))
        assert not big.overlaps(AsnRange(201, 300))

    def test_rejects_inverted(self):
        with pytest.raises(AsnValueError):
            AsnRange(10, 5)

    def test_str_range(self):
        assert str(AsnRange(10, 20)) == "AS10-AS20"


class TestAsnSet:
    def test_of_and_normalize(self):
        s = AsnSet(AsnRange.single(a) for a in (3, 1, 2))
        assert len(s) == 1
        assert s.ranges[0] == AsnRange(1, 3)

    def test_covers(self):
        s = AsnSet([AsnRange.single(1239), AsnRange.single(17054)])
        assert s.covers(ASN(1239))
        assert 17054 in s
        assert not s.covers(7341)

    def test_union_subtract(self):
        s = AsnSet([AsnRange(100, 200)])
        t = s.subtract(AsnRange(150, 160))
        assert not t.covers(155)
        assert t.covers(149) and t.covers(161)
        assert t.union(AsnSet([AsnRange(150, 160)])) == s

    def test_subtract_single_asn(self):
        s = AsnSet([AsnRange(1, 3)])
        t = s.subtract(2)
        assert t == AsnSet([AsnRange.single(1), AsnRange.single(3)])

    def test_empty(self):
        s = AsnSet.empty()
        assert s.is_empty()
        assert s.covers(AsnSet.empty())

    def test_size(self):
        assert AsnSet([AsnRange(1, 10), AsnRange(20, 29)]).size == 20

    def test_value_semantics(self):
        a = AsnSet(AsnRange.single(n) for n in (1, 2, 3))
        b = AsnSet([AsnRange(1, 3)])
        assert a == b and hash(a) == hash(b)


class TestBuild:
    """Every build equals the sort-and-merge of the reference algebra,
    the one-range and empty builds that skip it included."""

    @pytest.mark.parametrize("ranges", [
        [],
        [AsnRange(7, 7)],
        [AsnRange(50, 60), AsnRange(1, 4), AsnRange(20, 30)],
        [AsnRange(10, 30), AsnRange(20, 40), AsnRange(15, 16)],
        [AsnRange(21, 30), AsnRange(10, 20), AsnRange(0, 9)],
    ], ids=["none", "one", "unsorted", "overlapping", "adjacent"])
    def test_equals_the_reference_build(self, ranges):
        expected = reference_ranges.AsnSet(ranges).ranges
        assert AsnSet(ranges).ranges == expected
        assert AsnSet(iter(ranges)).ranges == expected


class TestSharedEmptySet:
    """A certificate read with no AS numbers (every EE certificate) holds
    one shared empty set, so it must be a value like any other."""

    @staticmethod
    def read_as_resources(serial):
        key = KeyFactory(seed=31).next_keypair()
        certificate = build_certificate(
            issuer_key=key, issuer_key_id=key.key_id, subject="ee",
            subject_key=key.public, ip_resources=ResourceSet.parse(
                "192.0.2.0/24"), serial=serial, not_before=0, not_after=1,
            sia="", crldp="rsync://example.net/repo/ca.crl", is_ca=False)
        return parse_object(certificate.to_bytes()).as_resources

    def test_is_shared_and_equals_the_empty_set(self):
        shared = self.read_as_resources(1)
        assert shared is self.read_as_resources(2)
        assert shared == AsnSet() == AsnSet.empty()
        assert hash(shared) == hash(AsnSet())
        assert shared.ranges == () and not shared.covers(1)

    def test_stays_immutable(self):
        shared = self.read_as_resources(1)
        with pytest.raises(AttributeError):
            shared.ranges = (AsnRange(1, 1),)
        with pytest.raises(AttributeError):
            shared.extra = 1
        grown = shared.union(AsnSet([AsnRange(1, 5)]))
        assert grown == AsnSet([AsnRange(1, 5)]) and grown is not shared
        assert shared.subtract(AsnRange(1, 1)) == AsnSet()
        assert self.read_as_resources(3).is_empty()
