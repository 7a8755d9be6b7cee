"""Unit tests for AddressRange and ResourceSet, incl. Figure 3 hole-punch."""

import cProfile
import math
import random

import pytest

from repro.resources import (
    AddressRange,
    Afi,
    AfiMismatchError,
    AsnRange,
    AsnSet,
    Prefix,
    RangeValueError,
    ResourceSet,
)
from repro.resources import intervals

from . import reference_ranges


class TestAddressRange:
    def test_from_prefix(self):
        r = AddressRange.from_prefix(Prefix.parse("63.174.16.0/20"))
        assert r.size == 4096
        assert str(r) == "63.174.16.0/20"

    def test_parse_dash_notation(self):
        r = AddressRange.parse("63.174.16.0-63.174.23.255")
        assert r.size == 2048
        assert str(r) == "63.174.16.0/21"  # aligned, prints as prefix

    def test_parse_unaligned_prints_as_range(self):
        r = AddressRange.parse("10.0.0.1-10.0.0.5")
        assert str(r) == "10.0.0.1-10.0.0.5"
        assert r.as_prefix() is None

    def test_parse_rejects_mixed_families(self):
        with pytest.raises(AfiMismatchError):
            AddressRange.parse("10.0.0.0-::1")

    def test_rejects_inverted(self):
        with pytest.raises(RangeValueError):
            AddressRange(Afi.IPV4, 10, 5)

    def test_covers(self):
        big = AddressRange.parse("10.0.0.0-10.0.0.255")
        small = AddressRange.parse("10.0.0.10-10.0.0.20")
        assert big.covers(small)
        assert not small.covers(big)
        assert big.covers(big)

    def test_overlaps_and_adjacent(self):
        a = AddressRange.parse("10.0.0.0-10.0.0.9")
        b = AddressRange.parse("10.0.0.5-10.0.0.15")
        c = AddressRange.parse("10.0.0.10-10.0.0.20")
        assert a.overlaps(b)
        assert not a.overlaps(c)
        # Adjacent ranges merge into one; a gap keeps them apart.
        gap = AddressRange.parse("10.0.0.11-10.0.0.20")
        assert len(ResourceSet([a, c])) == 1
        assert len(ResourceSet([a, gap])) == 2

    def test_contains_address(self):
        r = AddressRange.parse("10.0.0.0-10.0.0.9")
        inside, outside = (Prefix.parse(text).network
                           for text in ("10.0.0.5/32", "10.0.0.10/32"))
        assert r.covers(AddressRange(Afi.IPV4, inside, inside))
        assert not r.covers(AddressRange(Afi.IPV4, outside, outside))

    def test_to_prefixes_minimal(self):
        # 10.0.0.1 - 10.0.0.6 decomposes to /32 /31 /31 /32.
        r = AddressRange.parse("10.0.0.1-10.0.0.6")
        got = [str(p) for p in r.to_prefixes()]
        assert got == ["10.0.0.1/32", "10.0.0.2/31", "10.0.0.4/31", "10.0.0.6/32"]

    def test_to_prefixes_covers_exactly(self):
        r = AddressRange.parse("63.174.25.0-63.174.31.255")
        prefixes = list(r.to_prefixes())
        assert sum(p.size for p in prefixes) == r.size
        assert all(r.covers(AddressRange.from_prefix(p)) for p in prefixes)

    def test_full_v4_space(self):
        r = AddressRange(Afi.IPV4, 0, Afi.IPV4.max_address)
        assert r.as_prefix() == Prefix.parse("0.0.0.0/0")


class TestResourceSet:
    def test_normalizes_overlap_and_adjacency(self):
        rs = ResourceSet.parse("10.0.0.0/25", "10.0.0.128/25", "10.0.0.64/26")
        assert len(rs) == 1
        assert str(rs) == "{10.0.0.0/24}"

    def test_empty(self):
        rs = ResourceSet.empty()
        assert rs.is_empty()
        assert rs.size == 0
        assert rs.covers(ResourceSet.empty())  # vacuous

    def test_covers_prefix(self):
        rs = ResourceSet.parse("63.160.0.0/12")
        assert rs.covers(Prefix.parse("63.174.16.0/20"))
        assert Prefix.parse("63.174.16.0/20") in rs
        assert not rs.covers(Prefix.parse("64.0.0.0/20"))

    def test_covers_requires_single_range_containment(self):
        # Two disjoint /25s do NOT cover the /24 spanning them plus the gap,
        # but DO cover it if adjacent (normalization merges them).
        rs = ResourceSet.parse("10.0.0.0/25", "10.0.1.0/25")
        assert not rs.covers(Prefix.parse("10.0.0.0/24"))

    def test_figure3_hole_punch(self):
        """Sprint shrinks Continental Broadband's RC around the target ROA.

        Paper, Figure 3: removing 63.174.24.0/24 from 63.174.16.0/20 leaves
        [63.174.16.0-63.174.23.255] and [63.174.25.0-63.174.31.255].
        """
        rc = ResourceSet.parse("63.174.16.0/20")
        shrunk = rc.subtract(Prefix.parse("63.174.24.0/24"))
        expected = ResourceSet.parse(
            "63.174.16.0-63.174.23.255", "63.174.25.0-63.174.31.255"
        )
        assert shrunk == expected
        # The hole is gone, the rest is intact.
        assert not shrunk.overlaps(Prefix.parse("63.174.24.0/24"))
        assert shrunk.covers(Prefix.parse("63.174.16.0/21"))
        assert shrunk.size == rc.size - 256

    def test_subtract_everything(self):
        rs = ResourceSet.parse("10.0.0.0/24")
        assert rs.subtract(Prefix.parse("10.0.0.0/24")).is_empty()
        assert rs.subtract(Prefix.parse("10.0.0.0/8")).is_empty()

    def test_subtract_disjoint_is_noop(self):
        rs = ResourceSet.parse("10.0.0.0/24")
        assert rs.subtract(Prefix.parse("11.0.0.0/24")) == rs

    def test_union(self):
        a = ResourceSet.parse("10.0.0.0/25")
        b = ResourceSet.parse("10.0.0.128/25")
        assert a.union(b) == ResourceSet.parse("10.0.0.0/24")

    def test_mixed_families(self):
        rs = ResourceSet.parse("10.0.0.0/8", "2001:db8::/32")
        assert rs.covers(Prefix.parse("10.1.0.0/16"))
        assert rs.covers(Prefix.parse("2001:db8:1::/48"))
        assert len(rs) == 2

    def test_prefixes_decomposition(self):
        rs = ResourceSet.parse("63.174.16.0-63.174.23.255", "63.174.25.0-63.174.31.255")
        prefixes = list(rs.prefixes())
        assert sum(p.size for p in prefixes) == rs.size
        assert all(rs.covers(p) for p in prefixes)

    def test_covers_address(self):
        rs = ResourceSet.parse("10.0.0.0/24")
        address = Prefix.parse("10.0.0.77/32").network
        assert rs.covers_span(Afi.IPV4, address, address)
        assert not rs.covers_span(Afi.IPV6, 1, 1)

    def test_value_semantics(self):
        a = ResourceSet.parse("10.0.0.0/25", "10.0.0.128/25")
        b = ResourceSet.parse("10.0.0.0/24")
        assert a == b and hash(a) == hash(b)

    def test_iteration_sorted(self):
        rs = ResourceSet.parse("192.0.2.0/24", "10.0.0.0/24")
        assert [str(r) for r in rs] == ["10.0.0.0/24", "192.0.2.0/24"]


def v4(start, end):
    return AddressRange(Afi.IPV4, start, end)


def v6(start, end):
    return AddressRange(Afi.IPV6, start, end)


# Inputs of every shape a set is built from: none and one range (built
# without a sort), unsorted, overlapping, adjacent, and the two families
# holding the same integers.
BUILDS = {
    "none": [],
    "one IPv4": [v4(10, 20)],
    "one IPv6": [v6(10, 20)],
    "unsorted": [v4(50, 60), v4(10, 20), v4(30, 40)],
    "unsorted families": [v6(1, 2), v4(5, 6), v6(0, 0), v4(1, 2)],
    "overlapping": [v4(10, 30), v4(20, 40), v4(15, 16)],
    "adjacent": [v4(21, 30), v4(10, 20), v6(8, 9), v6(10, 11)],
    "same integers, both families": [v6(10, 20), v4(10, 20)],
}


class TestBuild:
    """Every build equals the sort-and-merge of the reference algebra,
    the one-range and empty builds that skip it included."""

    @pytest.mark.parametrize("shape", BUILDS)
    def test_equals_the_reference_build(self, shape):
        ranges = BUILDS[shape]
        expected = reference_ranges.ResourceSet(ranges).ranges
        assert ResourceSet(ranges).ranges == expected
        assert ResourceSet(iter(ranges)).ranges == expected
        assert ResourceSet(tuple(ranges)) == ResourceSet(ranges)


def scan_covers(mine: ResourceSet, theirs: ResourceSet) -> bool:
    """``ResourceSet.covers`` as it was: every range against every range."""
    return all(
        any(m.covers(r) for m in mine.ranges) for r in theirs.ranges
    )


def scattered(rng, afi, count, *, step=4096, width=256):
    """*count* ranges of *afi*, none adjacent to the next — low in the
    family's space, so the two families hold overlapping integers."""
    base = 1 + rng.getrandbits(8)
    return [
        AddressRange(afi, base + i * step, base + i * step + rng.randrange(width))
        for i in range(count)
    ]


class TestCoversAtSize:
    """One validly signed ROA over n scattered prefixes must not cost
    n**2 to judge: ``covers`` bisects its sorted, disjoint ranges."""

    def test_4000_by_4000_is_counted_in_bisections_not_in_pairs(
        self, monkeypatch
    ):
        rng = random.Random(24)
        ranges = scattered(rng, Afi.IPV4, 4_000)
        mine, theirs = ResourceSet(ranges), ResourceSet(ranges)
        assert len(mine) == len(theirs) == 4_000
        calls = []
        inner = AddressRange.covers

        def counted(self, other):
            calls.append(None)
            return inner(self, other)

        monkeypatch.setattr(AddressRange, "covers", counted)
        assert mine.covers(theirs)
        assert len(calls) <= 4_000 * (math.log2(4_000) + 2)
        # The last range alone is where the old scan did worst.
        del calls[:]
        assert mine.covers(ranges[-1])
        assert len(calls) <= math.log2(4_000) + 2

    def test_answers_equal_the_scan(self):
        rng = random.Random(2013)
        for _ in range(200):
            afi = rng.choice((Afi.IPV4, Afi.IPV6))
            held = scattered(rng, afi, rng.randint(1, 40))
            other_afi = Afi.IPV6 if afi is Afi.IPV4 else Afi.IPV4
            mine = ResourceSet(held + scattered(rng, other_afi, 3))
            pick = rng.choice(held)
            low, high = held[0], held[-1]
            probes = [
                ResourceSet(rng.sample(held, rng.randint(0, len(held)))),
                ResourceSet([pick]),
                ResourceSet([AddressRange(afi, pick.start, pick.start)]),
                ResourceSet([AddressRange(afi, pick.end, pick.end)]),
                # One address short at either end.
                ResourceSet([AddressRange(afi, pick.start - 1, pick.end)]),
                ResourceSet([AddressRange(afi, pick.start, pick.end + 1)]),
                ResourceSet([AddressRange(afi, low.start - 1, low.start - 1)]),
                ResourceSet([AddressRange(afi, high.end + 1, high.end + 1)]),
                # Straddling two of mine, and all of them.
                ResourceSet([AddressRange(afi, low.start, high.end)]),
                ResourceSet([AddressRange(afi, pick.start, pick.end + 4096)]),
                # The other family: same integers, and its own ranges.
                ResourceSet([AddressRange(other_afi, pick.start, pick.end)]),
                ResourceSet(mine.ranges[-3:]),
                ResourceSet(held + [AddressRange(afi, high.end + 2,
                                                 high.end + 2)]),
                ResourceSet.empty(),
            ]
            for theirs in probes:
                assert mine.covers(theirs) == scan_covers(mine, theirs), (
                    mine, theirs)
                assert ResourceSet.empty().covers(theirs) == theirs.is_empty()
            for range_ in probes[1].ranges + probes[4].ranges:
                assert mine.covers(range_) == any(
                    m.covers(range_) for m in mine.ranges)
            for prefix in pick.to_prefixes():
                assert mine.covers(prefix)


class TestCoversSpanIsOneBisection:
    """A single span against a holder is one bisection of its ranges,
    whatever their number, and the bisection's key is read in C: the
    span test makes no Python call but its own."""

    @pytest.mark.parametrize("count", [1, 50, 4_000])
    def test_for_any_holder_size(self, count, monkeypatch):
        holder = ResourceSet(scattered(random.Random(count), Afi.IPV4, count)
                             + scattered(random.Random(-count), Afi.IPV6, 3))
        bisections = []
        bisect_right = intervals.bisect_right

        def counted(*args, **kwargs):
            bisections.append(None)
            return bisect_right(*args, **kwargs)

        monkeypatch.setattr(intervals, "bisect_right", counted)
        for held in holder.ranges[::max(1, count // 7)]:
            del bisections[:]
            assert holder.covers_span(held.afi, held.start, held.end)
            assert not holder.covers_span(held.afi, held.start, held.end + 1)
            assert len(bisections) == 2
        monkeypatch.undo()
        last = holder.ranges[-1]
        afi, start, end = last.afi, last.start, last.end
        # The lambda and the span test: nothing per bisection step.
        assert python_calls(lambda: holder.covers_span(afi, start, end)) == 2


def python_calls(work) -> int:
    """The Python function calls *work* makes."""
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        work()
    finally:
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


class TestAlgebraAtSize:
    """An authority chooses how many ranges it signs, and a monitor
    subtracts a reissued certificate's set from the old one: no set
    operation may cost n**2.  Each set-against-set operation is one
    linear merge, so its calls at most about double with n; every range
    against every range quadruples them.  A holder of n ranges covering
    each of n one-range sets is n bisections, not n walks of its ranges:
    that is a CA judging each one-prefix ROA or one-range child it signs."""

    SIZES = (500, 1_000)

    @staticmethod
    def operations(count):
        rng = random.Random(count)
        ranges = scattered(rng, Afi.IPV4, count)
        mine = ResourceSet(ranges)
        # Each of theirs overlaps the top of one of mine and runs on into
        # the gap after it.
        straddling = ResourceSet(
            AddressRange(Afi.IPV4, r.end, r.end + 100) for r in ranges)
        # Interleaved with mine and touching none: no early exit.
        between = ResourceSet(
            AddressRange(Afi.IPV4, r.end + 1_000, r.end + 1_100)
            for r in ranges)
        asns = AsnSet(AsnRange(r.start, r.end) for r in ranges)
        assert len(mine) == len(straddling) == len(between) == count
        # The top range last: a walk from the bottom does its worst.
        singles = [ResourceSet([r]) for r in reversed(ranges)]
        asn_singles = [AsnSet([r]) for r in reversed(asns.ranges)]
        return {
            "subtract": lambda: mine.subtract(straddling),
            "overlaps": lambda: mine.overlaps(between),
            "AsnSet.covers": lambda: asns.covers(AsnSet(asns.ranges)),
            "covers each one-range set": lambda: all(
                mine.covers(one) for one in singles),
            "AsnSet.covers each one-range set": lambda: all(
                asns.covers(one) for one in asn_singles),
        }

    def test_set_operations_grow_linearly(self):
        small, large = (
            {name: python_calls(work)
             for name, work in self.operations(count).items()}
            for count in self.SIZES)
        for name in small:
            assert large[name] <= 2.5 * small[name], (
                name, small[name], large[name])

    def test_answers(self):
        ops = self.operations(500)
        ranges = scattered(random.Random(500), Afi.IPV4, 500)
        # Each straddling range takes exactly the top address of one of mine.
        tops = ResourceSet(AddressRange(Afi.IPV4, r.end, r.end) for r in ranges)
        kept = ops["subtract"]()
        assert not kept.overlaps(tops)
        assert kept.union(tops) == ResourceSet(ranges)
        assert ops["overlaps"]() is False
        assert ops["AsnSet.covers"]() is True
        assert ops["covers each one-range set"]() is True
        assert ops["AsnSet.covers each one-range set"]() is True
