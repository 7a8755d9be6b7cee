"""Property-based tests (hypothesis) for the resource algebra invariants.

These pin down the algebraic laws that the whacking attacks and route
validity logic silently rely on: normalization is canonical, subtraction
really removes exactly the hole, decomposition is exact, the prefix map
agrees with brute force.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resources import (
    AS_MAX,
    ASN,
    Afi,
    AddressRange,
    AsnRange,
    AsnSet,
    Prefix,
    PrefixMap,
    ResourceSet,
)
from repro.resources.ipaddr import format_ipv4, format_ipv6, parse_ipv4, parse_ipv6

from . import reference_ranges


def intersect(a, b):
    """``a ∩ b`` by the reference algebra: the shipped one has none."""
    reference = reference_ranges.ResourceSet
    return ResourceSet(reference(a.ranges).intersect(reference(b.ranges)).ranges)

# -- strategies ------------------------------------------------------------

v4_address = st.integers(min_value=0, max_value=2**32 - 1)
v6_address = st.integers(min_value=0, max_value=2**128 - 1)


@st.composite
def v4_prefixes(draw, min_length=0, max_length=32):
    length = draw(st.integers(min_value=min_length, max_value=max_length))
    addr = draw(v4_address)
    network = (addr >> (32 - length)) << (32 - length) if length else 0
    return Prefix(Afi.IPV4, network, length)


@st.composite
def nested_prefixes(draw):
    """Prefixes from one small corner of either family, so draws nest and
    collide; the IPv6 lengths sit on both sides of the 60-bit limb
    boundaries of the map's keys."""
    afi = draw(st.sampled_from(list(Afi)))
    length = draw(st.sampled_from(
        (0, 1, 2, 3, 4, 5, 8, afi.bits - 1, afi.bits)
        + ((59, 60, 61, 120, 121) if afi is Afi.IPV6 else ())))
    address = (draw(st.integers(0, 31)) << (afi.bits - 5)) | draw(
        st.sampled_from((0, afi.max_address >> 5)))
    host_bits = afi.bits - length
    return Prefix(afi, address >> host_bits << host_bits, length)


@st.composite
def v4_ranges(draw):
    a = draw(v4_address)
    b = draw(v4_address)
    lo, hi = min(a, b), max(a, b)
    return AddressRange(Afi.IPV4, lo, hi)


@st.composite
def resource_sets(draw):
    return ResourceSet(draw(st.lists(v4_ranges(), max_size=6)))


# -- address codec ----------------------------------------------------------


@given(v4_address)
def test_ipv4_roundtrip(value):
    assert parse_ipv4(format_ipv4(value)) == value


@given(v6_address)
def test_ipv6_roundtrip(value):
    assert parse_ipv6(format_ipv6(value)) == value


# -- prefix laws -------------------------------------------------------------


@given(v4_prefixes())
def test_prefix_parse_roundtrip(prefix):
    assert Prefix.parse(str(prefix)) == prefix


@given(v4_prefixes(max_length=31))
def test_children_partition_parent(prefix):
    low, high = prefix.children()
    assert prefix.covers(low) and prefix.covers(high)
    assert not low.overlaps(high)
    assert low.size + high.size == prefix.size


@given(v4_prefixes(), v4_prefixes())
def test_covering_matches_range_containment(a, b):
    ra, rb = AddressRange.from_prefix(a), AddressRange.from_prefix(b)
    assert a.covers(b) == ra.covers(rb)


@given(v4_prefixes(), v4_prefixes())
def test_prefix_overlap_is_nesting(a, b):
    # Two prefixes either nest or are disjoint — never partially overlap.
    ra, rb = AddressRange.from_prefix(a), AddressRange.from_prefix(b)
    if ra.overlaps(rb):
        assert a.covers(b) or b.covers(a)


# -- range decomposition -------------------------------------------------------


@given(v4_ranges())
@settings(max_examples=200)
def test_decomposition_is_exact_partition(range_):
    prefixes = list(range_.to_prefixes())
    assert sum(p.size for p in prefixes) == range_.size
    cursor = range_.start
    for prefix in prefixes:
        assert prefix.network == cursor
        cursor = prefix.broadcast + 1
    assert cursor == range_.end + 1


@given(v4_ranges())
def test_decomposition_prefixes_are_maximal(range_):
    # No two adjacent output prefixes can merge into one aligned block.
    prefixes = list(range_.to_prefixes())
    for left, right in zip(prefixes, prefixes[1:]):
        if left.length == right.length and left.length > 0:
            merged_network = left.network & ~(
                (1 << (32 - left.length + 1)) - 1
            )
            mergeable = (
                left.network == merged_network
                and right.network == left.network + left.size
                and left.network % (2 * left.size) == 0
            )
            assert not mergeable


# -- resource-set algebra ----------------------------------------------------


@given(resource_sets())
def test_normalization_is_canonical(rs):
    rebuilt = ResourceSet(rs.ranges)
    assert rebuilt == rs
    ranges = rs.ranges
    for left, right in zip(ranges, ranges[1:]):
        assert left.end + 1 < right.start  # disjoint AND non-adjacent


@given(resource_sets(), resource_sets())
def test_union_covers_both(a, b):
    u = a.union(b)
    assert u.covers(a) and u.covers(b)
    assert u.size <= a.size + b.size


@given(resource_sets(), resource_sets())
def test_union_commutes(a, b):
    assert a.union(b) == b.union(a)


@given(resource_sets(), resource_sets())
def test_subtract_removes_exactly_the_hole(a, b):
    d = a.subtract(b)
    assert not d.overlaps(b) or b.is_empty()
    assert a.covers(d)
    assert d.size == a.size - intersect(a, b).size


@given(resource_sets(), resource_sets())
def test_subtract_then_union_restores_cover(a, b):
    # (a - b) U (a ∩ b) == a
    assert a.subtract(b).union(intersect(a, b)) == a


@given(resource_sets())
def test_prefix_decomposition_equals_set(rs):
    rebuilt = ResourceSet.from_prefixes(rs.prefixes())
    assert rebuilt == rs


# -- ASN sets ------------------------------------------------------------------

asn_ranges = st.tuples(
    st.integers(min_value=0, max_value=100000),
    st.integers(min_value=0, max_value=100000),
).map(lambda t: AsnRange(min(t), max(t)))


@given(st.lists(asn_ranges, max_size=5), st.lists(asn_ranges, max_size=5))
def test_asn_subtract_union_roundtrip(xs, ys):
    a, b = AsnSet(xs), AsnSet(ys)
    d = a.subtract(b)
    assert a.covers(d)
    for r in d.ranges:
        assert not any(h.overlaps(r) for h in b.ranges)


# -- one algebra vs the two nested-loop copies it replaced --------------------


def corner_bounds(draw, top):
    """Two ordered bounds inside a 64-wide corner at either end of
    ``[0, top]``, so draws overlap, touch, nest and hit the edges."""
    base = draw(st.sampled_from((0, top - 63)))
    low, high = sorted((draw(st.integers(0, 63)), draw(st.integers(0, 63))))
    return base + low, base + high


@st.composite
def corner_address_ranges(draw):
    afi = draw(st.sampled_from(list(Afi)))
    return AddressRange(afi, *corner_bounds(draw, afi.max_address))


@st.composite
def corner_asn_ranges(draw):
    return AsnRange(*corner_bounds(draw, AS_MAX))


def assert_same_set(new, old):
    assert new.ranges == old.ranges
    assert (str(new), repr(new)) == (str(old), repr(old))


def assert_agree(shipped, reference, xs, ys, singles):
    """Every operation of *shipped* over ranges *xs* (and *ys*, or one
    of *singles*) answers as *reference* does."""
    new_a, new_b = shipped(xs), shipped(ys)
    old_a, old_b = reference(xs), reference(ys)
    assert_same_set(new_a, old_a)
    assert_same_set(new_b, old_b)
    for new_arg, old_arg in [(new_b, old_b)] + [(s, s) for s in singles]:
        assert new_a.covers(new_arg) == old_a.covers(old_arg), old_arg
        assert new_a.overlaps(new_arg) == old_a.overlaps(old_arg), old_arg
        assert_same_set(new_a.subtract(new_arg), old_a.subtract(old_arg))
    assert_same_set(new_a.union(new_b), old_a.union(old_b))


@given(st.lists(corner_address_ranges(), max_size=8),
       st.lists(corner_address_ranges(), max_size=8))
@settings(max_examples=200)
def test_resource_set_agrees_with_the_reference(xs, ys):
    prefixes = [p for y in ys[:2] for p in y.to_prefixes()][:4]
    assert_agree(ResourceSet, reference_ranges.ResourceSet, xs, ys,
                 ys + prefixes)


@given(st.lists(corner_asn_ranges(), max_size=8),
       st.lists(corner_asn_ranges(), max_size=8))
@settings(max_examples=200)
def test_asn_set_agrees_with_the_reference(xs, ys):
    numbers = [y.start for y in ys[:2]] + [ASN(y.end) for y in ys[:2]]
    assert_agree(AsnSet, reference_ranges.AsnSet, xs, ys, ys + numbers)


# -- prefix map vs brute force ------------------------------------------------


@given(st.lists(v4_prefixes(min_length=1, max_length=24), max_size=20), v4_prefixes())
@settings(max_examples=150)
def test_trie_covering_matches_bruteforce(stored, probe):
    index = PrefixMap()
    payload = {}
    for i, prefix in enumerate(stored):
        index.insert(prefix, i)
        payload[prefix] = i  # last write wins, like the map
    got = {k for k, _ in index.covering(probe)}
    expected = {k for k in payload if k.covers(probe)}
    assert got == expected


@given(st.lists(v4_prefixes(min_length=1, max_length=28), min_size=1, max_size=20))
def test_trie_insert_remove_all_leaves_empty(stored):
    index = PrefixMap()
    unique = list(dict.fromkeys(stored))
    for prefix in unique:
        index.insert(prefix, str(prefix))
    assert len(index) == len(unique)
    for prefix in unique:
        assert index.remove(prefix) == str(prefix)
    assert len(index) == 0
    assert list(index.items()) == []


@given(st.data())
@settings(max_examples=150)
def test_trie_interleaved_edits_match_dict_scan(data):
    """insert / get_or_insert / remove in any order, both families in one
    map, every query checked against a scan of a plain dict after every
    edit.  Removals are drawn often enough that lengths empty and refill."""
    edits = data.draw(st.lists(
        st.tuples(st.sampled_from(("insert", "get_or_insert", "remove")),
                  nested_prefixes()),
        max_size=30))
    probes = data.draw(st.lists(nested_prefixes(), min_size=1, max_size=3))
    index = PrefixMap()
    oracle = {}
    for step, (edit, prefix) in enumerate(edits):
        if edit == "insert":
            index.insert(prefix, step)
            oracle[prefix] = step
        elif edit == "get_or_insert":
            assert index.get_or_insert(prefix, lambda: step) == (
                oracle.setdefault(prefix, step))
        elif prefix in oracle:
            assert index.remove(prefix) == oracle.pop(prefix)
        else:
            with pytest.raises(KeyError):
                index.remove(prefix)
        assert len(index) == len(oracle)
        # A prefix before what it covers, low half first, IPv4 first.
        assert list(index.items()) == sorted(oracle.items())
        for probe in (prefix, *probes):
            assert index.get(probe) == oracle.get(probe)
            assert (probe in index) == (probe in oracle)
            covering = sorted(
                ((k, v) for k, v in oracle.items() if k.covers(probe)),
                key=lambda hit: hit[0].length)
            assert list(index.covering(probe)) == covering
            assert index.longest_match(probe) == (
                covering[-1] if covering else None)
    for prefix in oracle:
        index.remove(prefix)
    assert len(index) == 0
    # Every length went out of use with its last prefix.
    assert all(not levels for levels in index._levels.values())
