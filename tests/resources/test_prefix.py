"""Unit tests for Prefix, including the paper's covering examples."""

import pytest

from repro.resources import Afi, Prefix, PrefixParseError, PrefixValueError


class TestConstruction:
    def test_parse(self):
        p = Prefix.parse("63.160.0.0/12")
        assert p.afi is Afi.IPV4
        assert p.length == 12
        assert str(p) == "63.160.0.0/12"

    def test_parse_ipv6(self):
        p = Prefix.parse("2001:db8::/32")
        assert p.afi is Afi.IPV6
        assert p.length == 32

    def test_rejects_host_bits(self):
        with pytest.raises(PrefixValueError):
            Prefix(Afi.IPV4, 1, 24)

    @pytest.mark.parametrize("bad", ["10.0.0.0", "10.0.0.0/33", "10.0.0.0/x", "/8"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(PrefixParseError):
            Prefix.parse(bad)

    def test_rejects_negative_length(self):
        with pytest.raises(PrefixParseError):
            Prefix.parse("10.0.0.0/-1")


class TestCovering:
    def test_paper_footnote_example(self):
        # "63.160.0.0/12 covers 63.168.93.0/24" (paper, footnote 1).
        assert Prefix.parse("63.160.0.0/12").covers(Prefix.parse("63.168.93.0/24"))

    def test_covers_self(self):
        p = Prefix.parse("63.160.0.0/12")
        assert p.covers(p)

    def test_shorter_does_not_cover(self):
        assert not Prefix.parse("63.168.93.0/24").covers(Prefix.parse("63.160.0.0/12"))

    def test_sibling_does_not_cover(self):
        assert not Prefix.parse("10.0.0.0/9").covers(Prefix.parse("10.128.0.0/9"))

    def test_cross_family_never_covers(self):
        assert not Prefix.parse("0.0.0.0/0").covers(Prefix.parse("::/0"))

    def test_overlaps(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.5.0.0/16")
        c = Prefix.parse("11.0.0.0/8")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)


class TestNavigation:
    def test_parent(self):
        assert Prefix.parse("10.128.0.0/9").parent() == Prefix.parse("10.0.0.0/8")

    def test_parent_of_root_fails(self):
        with pytest.raises(PrefixValueError):
            Prefix.parse("0.0.0.0/0").parent()

    def test_children(self):
        low, high = Prefix.parse("10.0.0.0/8").children()
        assert low == Prefix.parse("10.0.0.0/9")
        assert high == Prefix.parse("10.128.0.0/9")

    def test_children_of_host_fails(self):
        with pytest.raises(PrefixValueError):
            Prefix.parse("10.0.0.1/32").children()

    def test_children_parent_roundtrip(self):
        p = Prefix.parse("63.174.16.0/20")
        for child in p.children():
            assert child.parent() == p

    def test_subprefixes_count(self):
        p = Prefix.parse("63.160.0.0/12")
        assert sum(1 for _ in p.subprefixes(13)) == 2
        assert sum(1 for _ in p.subprefixes(16)) == 16
        assert list(p.subprefixes(12)) == [p]

    def test_subprefixes_bad_length(self):
        with pytest.raises(PrefixValueError):
            list(Prefix.parse("10.0.0.0/16").subprefixes(8))
        with pytest.raises(PrefixValueError):
            list(Prefix.parse("10.0.0.0/16").subprefixes(33))


class TestValueSemantics:
    def test_equality_and_hash(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.0.0.0/8")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_ordering_is_trie_order(self):
        prefixes = [
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("10.0.0.0/16"),
            Prefix.parse("9.0.0.0/8"),
        ]
        assert sorted(prefixes) == [
            Prefix.parse("9.0.0.0/8"),
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("10.0.0.0/16"),
        ]

    def test_v4_sorts_before_v6(self):
        assert Prefix.parse("255.0.0.0/8") < Prefix.parse("::/0")

    def test_size_and_broadcast(self):
        p = Prefix.parse("63.174.16.0/20")
        assert p.size == 4096
        assert p.broadcast - p.network == 4095

    def test_repr_contains_text_form(self):
        p = Prefix.parse("63.174.16.0/20")
        assert repr(p) == "Prefix('63.174.16.0/20')"


class TestHashCaching:
    """__hash__ computes once and is stable — Prefix keys the hot indexes."""

    def test_hash_cached_after_first_use(self):
        p = Prefix.parse("63.174.16.0/20")
        assert p._hash == -1          # unset sentinel before first hash
        value = hash(p)
        assert p._hash == value != -1
        assert hash(p) == value       # served from the cache

    def test_equal_prefixes_hash_equal(self):
        a = Prefix.parse("63.174.16.0/20")
        b = Prefix.parse("63.174.16.0/20")
        assert a == b and hash(a) == hash(b)

    def test_cache_never_stores_the_sentinel(self):
        # -1 is CPython's invalid-hash marker; the cache must remap it so
        # a prefix whose true hash is -1 doesn't recompute forever.
        for length in range(0, 33):
            p = Prefix(Afi.IPV4, 0, length)
            assert hash(p) != -1 or p._hash == -2
            assert p._hash != -1
