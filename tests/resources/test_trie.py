"""Unit tests for :class:`repro.resources.PrefixMap`.

The module under test is ``repro.resources.prefixmap``; this file keeps
the name it had when the map was a radix trie because a test's id is
its file's name, and the ids below are the suite's record of what the
map has always had to do.
"""

import pytest

from repro.resources import Prefix, PrefixMap


def p(text):
    return Prefix.parse(text)


class TestInsertGetRemove:
    def test_basic_roundtrip(self):
        m = PrefixMap()
        m.insert(p("10.0.0.0/8"), "a")
        assert m.get(p("10.0.0.0/8")) == "a"
        assert len(m) == 1

    def test_overwrite_keeps_size(self):
        m = PrefixMap()
        m.insert(p("10.0.0.0/8"), "a")
        m.insert(p("10.0.0.0/8"), "b")
        assert m[p("10.0.0.0/8")] == "b"
        assert len(m) == 1

    def test_get_missing_returns_default(self):
        m = PrefixMap()
        assert m.get(p("10.0.0.0/8")) is None
        assert m.get(p("10.0.0.0/8"), "x") == "x"

    def test_getitem_missing_raises(self):
        m = PrefixMap()
        with pytest.raises(KeyError):
            m[p("10.0.0.0/8")]

    def test_exact_match_only(self):
        m = PrefixMap()
        m.insert(p("10.0.0.0/8"), "a")
        assert m.get(p("10.0.0.0/9")) is None
        assert m.get(p("10.0.0.0/7")) is None

    def test_root_prefix(self):
        m = PrefixMap()
        m.insert(p("0.0.0.0/0"), "default")
        assert m.get(p("0.0.0.0/0")) == "default"
        assert next(iter(m.covering(p("192.0.2.0/24"))))[1] == "default"

    def test_remove(self):
        m = PrefixMap()
        m.insert(p("10.0.0.0/8"), "a")
        m.insert(p("10.0.0.0/16"), "b")
        assert m.remove(p("10.0.0.0/8")) == "a"
        assert len(m) == 1
        assert m.get(p("10.0.0.0/16")) == "b"

    def test_remove_missing_raises(self):
        m = PrefixMap()
        m.insert(p("10.0.0.0/8"), "a")
        with pytest.raises(KeyError):
            m.remove(p("10.0.0.0/16"))
        with pytest.raises(KeyError):
            m.remove(p("11.0.0.0/8"))

    def test_remove_prunes_but_preserves_others(self):
        m = PrefixMap()
        m.insert(p("10.0.0.0/24"), 1)
        m.insert(p("10.0.1.0/24"), 2)
        m.remove(p("10.0.0.0/24"))
        assert list(m.keys()) == [p("10.0.1.0/24")]


class TestStructuralQueries:
    def make_map(self):
        m = PrefixMap()
        for text in ["63.160.0.0/12", "63.174.16.0/20", "63.174.16.0/22",
                     "63.168.0.0/16", "8.0.0.0/8"]:
            m.insert(p(text), text)
        return m

    def test_covering_shortest_first(self):
        m = self.make_map()
        got = [str(k) for k, _ in m.covering(p("63.174.16.0/24"))]
        assert got == ["63.160.0.0/12", "63.174.16.0/20", "63.174.16.0/22"]

    def test_covering_includes_exact(self):
        m = self.make_map()
        got = [str(k) for k, _ in m.covering(p("63.174.16.0/20"))]
        assert got == ["63.160.0.0/12", "63.174.16.0/20"]

    def test_covering_none(self):
        m = self.make_map()
        assert list(m.covering(p("192.0.2.0/24"))) == []

    def test_longest_match(self):
        m = self.make_map()
        hit = m.longest_match(p("63.174.16.55/32"))
        assert hit is not None and str(hit[0]) == "63.174.16.0/22"
        hit2 = m.longest_match(p("63.174.24.0/24"))
        assert hit2 is not None and str(hit2[0]) == "63.174.16.0/20"
        assert m.longest_match(p("192.0.2.1/32")) is None

    def test_items_in_address_order(self):
        m = self.make_map()
        keys = [k for k, _ in m.items()]
        assert keys == sorted(keys)
        # A prefix comes before what it covers, low half before high.
        assert [str(k) for k in keys] == [
            "8.0.0.0/8", "63.160.0.0/12", "63.168.0.0/16",
            "63.174.16.0/20", "63.174.16.0/22"]
        assert list(m.keys()) == keys


class TestPrefixMap:
    def test_dispatches_both_families(self):
        m = PrefixMap()
        m.insert(p("10.0.0.0/8"), "v4")
        m.insert(p("2001:db8::/32"), "v6")
        assert m[p("10.0.0.0/8")] == "v4"
        assert m[p("2001:db8::/32")] == "v6"
        assert len(m) == 2
        assert p("10.0.0.0/8") in m

    def test_items_v4_before_v6(self):
        m = PrefixMap()
        m.insert(p("2001:db8::/32"), "v6")
        m.insert(p("10.0.0.0/8"), "v4")
        assert [v for _, v in m.items()] == ["v4", "v6"]

    def test_longest_match_per_family(self):
        m = PrefixMap()
        m.insert(p("0.0.0.0/0"), "v4-default")
        hit = m.longest_match(p("192.0.2.1/32"))
        assert hit is not None and hit[1] == "v4-default"
        assert m.longest_match(p("2001:db8::1/128")) is None

    def test_remove_and_bool(self):
        m = PrefixMap()
        assert not m
        m.insert(p("10.0.0.0/8"), 1)
        assert m
        assert m.remove(p("10.0.0.0/8")) == 1
        assert not m


class TestGetOrInsert:
    """The one-probe bucket idiom VrpSet bulk construction rides on."""

    def test_inserts_factory_value_when_absent(self):
        m = PrefixMap()
        bucket = m.get_or_insert(p("10.0.0.0/8"), list)
        assert bucket == []
        assert m.get(p("10.0.0.0/8")) is bucket
        assert len(m) == 1

    def test_returns_existing_value_without_calling_factory(self):
        m = PrefixMap()
        first = m.get_or_insert(p("10.0.0.0/8"), list)
        first.append("marker")

        def exploding_factory():
            raise AssertionError("factory must not run on a hit")

        again = m.get_or_insert(p("10.0.0.0/8"), exploding_factory)
        assert again is first and again == ["marker"]
        assert len(m) == 1

    def test_distinguishes_exact_prefixes(self):
        m = PrefixMap()
        outer = m.get_or_insert(p("10.0.0.0/8"), list)
        inner = m.get_or_insert(p("10.0.0.0/16"), list)
        assert outer is not inner
        assert len(m) == 2

    def test_prefix_map_dispatches(self):
        m = PrefixMap()
        v4 = m.get_or_insert(p("10.0.0.0/8"), list)
        v6 = m.get_or_insert(p("2001:db8::/32"), list)
        assert v4 is m.get(p("10.0.0.0/8"))
        assert v6 is m.get(p("2001:db8::/32"))
        assert m.get_or_insert(p("10.0.0.0/8"), list) is v4


class TestEdgeCases:
    """The extremes the RIB and VRP index lean on."""

    def test_default_route_insert_and_match(self):
        m = PrefixMap()
        m.insert(p("0.0.0.0/0"), "default")
        m.insert(p("10.0.0.0/8"), "ten")
        assert m[p("0.0.0.0/0")] == "default"
        # The default route covers everything...
        assert m.longest_match(p("192.0.2.0/24")) == (
            p("0.0.0.0/0"), "default")
        # ...but loses to any more-specific entry.
        assert m.longest_match(p("10.1.0.0/16")) == (
            p("10.0.0.0/8"), "ten")
        assert list(m.covering(p("10.0.0.0/8"))) == [
            (p("0.0.0.0/0"), "default"), (p("10.0.0.0/8"), "ten")]

    def test_v6_default_route(self):
        m = PrefixMap()
        m.insert(p("::/0"), "default")
        assert m.longest_match(p("2001:db8::/32")) == (
            p("::/0"), "default")

    def test_host_route_v4_longest_match(self):
        m = PrefixMap()
        m.insert(p("192.0.2.0/24"), "net")
        m.insert(p("192.0.2.1/32"), "host")
        assert m.longest_match(p("192.0.2.1/32")) == (
            p("192.0.2.1/32"), "host")
        assert m.longest_match(p("192.0.2.2/32")) == (
            p("192.0.2.0/24"), "net")

    def test_host_route_v6_longest_match(self):
        m = PrefixMap()
        m.insert(p("2001:db8::/32"), "net")
        m.insert(p("2001:db8::1/128"), "host")
        assert m.longest_match(p("2001:db8::1/128")) == (
            p("2001:db8::1/128"), "host")
        assert m.longest_match(p("2001:db8::2/128")) == (
            p("2001:db8::/32"), "net")

    def test_remove_interior_node_keeps_children(self):
        m = PrefixMap()
        m.insert(p("10.0.0.0/8"), "parent")
        m.insert(p("10.0.0.0/16"), "left")
        m.insert(p("10.128.0.0/16"), "right")
        assert m.remove(p("10.0.0.0/8")) == "parent"
        assert len(m) == 2
        assert p("10.0.0.0/8") not in m
        # The children survive and still answer structural queries.
        assert m[p("10.0.0.0/16")] == "left"
        assert m[p("10.128.0.0/16")] == "right"
        assert m.longest_match(p("10.0.1.0/24")) == (
            p("10.0.0.0/16"), "left")
        assert [v for _prefix, v in m.items()] == ["left", "right"]

    def test_a_length_emptied_and_refilled_answers_again(self):
        m = PrefixMap()
        m.insert(p("10.0.0.0/8"), "outer")
        m.insert(p("10.1.0.0/16"), "inner")
        probe = p("10.1.2.0/24")
        assert m.longest_match(probe) == (p("10.1.0.0/16"), "inner")
        m.remove(p("10.1.0.0/16"))          # /16 goes out of use
        assert m.longest_match(probe) == (p("10.0.0.0/8"), "outer")
        m.insert(p("10.1.0.0/16"), "again")
        assert [v for _, v in m.covering(probe)] == ["outer", "again"]

    def test_families_with_equal_bits_stay_apart(self):
        # 10.0.0.0/8 and a00::/8 have the same eight significant bits.
        m = PrefixMap()
        m.insert(p("10.0.0.0/8"), "v4")
        assert p("a00::/8") not in m
        assert list(m.covering(p("a00::/16"))) == []
        m.insert(p("a00::/8"), "v6")
        assert m.remove(p("10.0.0.0/8")) == "v4"
        assert m[p("a00::/8")] == "v6" and len(m) == 1


def test_the_trie_is_gone():
    with pytest.raises(ImportError):
        from repro import PrefixTrie  # noqa: F401
    with pytest.raises(ImportError):
        from repro.resources import PrefixTrie  # noqa: F401, F811
    with pytest.raises(ImportError):
        import repro.resources.trie  # noqa: F401
