"""Tests for the Section 7 granularity analysis."""

import pytest

from repro.core import MIN_ROUTABLE_V4, whack_blast_radius
from repro.rp import VRP, VrpSet


def vrps(*specs):
    return VrpSet(VRP.parse(t, a) for t, a in specs)


FIGURE2 = vrps(
    ("63.161.0.0/16-24", 1239),
    ("63.174.16.0/20", 17054),
    ("63.174.16.0/22", 7341),
    ("63.174.20.0/24", 17054),
)


class TestBlastRadius:
    def test_paper_floor_is_a_slash24(self):
        assert MIN_ROUTABLE_V4 == 24
        radius = whack_blast_radius("63.174.20.9", vrps(("63.174.20.0/24", 17054)))
        # "more coarse-grained than domain name seizures ... 256 addresses"
        assert radius.minimum_unreachable == 256
        assert radius.dns_seizure_equivalent == 1
        assert radius.disturbed_addresses == 256

    def test_all_covering_vrps_must_die(self):
        radius = whack_blast_radius("63.174.17.55", FIGURE2)
        whacked = {str(v) for v in radius.whacked_vrps}
        assert whacked == {
            "(63.174.16.0/20, AS17054)",
            "(63.174.16.0/22, AS7341)",
        }
        # The union of the whacked prefixes is the whole /20.
        assert radius.disturbed_addresses == 4096

    def test_nested_prefixes_not_double_counted(self):
        radius = whack_blast_radius("63.174.20.9", FIGURE2)
        # /20 and the /24 inside it: union is still just the /20.
        assert radius.disturbed_addresses == 4096

    def test_unprotected_target(self):
        radius = whack_blast_radius("8.8.8.8", FIGURE2)
        assert radius.whacked_vrps == ()
        assert radius.disturbed_addresses == 0
        assert radius.minimum_unreachable == 256  # the /24 floor still applies

    def test_coarse_roa_amplifies(self):
        # One target address under only a /12 ROA: whacking it disturbs
        # a million addresses — the amplification the paper contrasts
        # with single-domain seizures.
        coarse = vrps(("63.160.0.0/12-13", 1239))
        radius = whack_blast_radius("63.163.0.1", coarse)
        assert radius.disturbed_addresses == 2**20

    def test_ipv6_floor(self):
        radius = whack_blast_radius(
            "2001:db8::1", vrps(("2001:db8::/32", 64512))
        )
        assert radius.minimum_unreachable == 1 << (128 - 48)

    def test_describe(self):
        text = whack_blast_radius("63.174.17.55", FIGURE2).describe()
        assert "4096 addresses" in text
