"""The unified origin entry point: ``validate(prefix, origin, vrps)``."""

from repro.resources import Prefix
from repro.rp import VRP, RouteValidity, VrpSet, validate

VRPS = VrpSet([
    VRP.parse("63.160.0.0/12-16", 1239),
    VRP.parse("63.168.93.0/24", 19429),
])


class TestValidate:
    def test_accepts_strings_and_ints(self):
        outcome = validate("63.160.0.0/12", 1239, VRPS)
        assert outcome.state is RouteValidity.VALID
        assert outcome.route.prefix == Prefix.parse("63.160.0.0/12")
        assert int(outcome.route.origin) == 1239

    def test_accepts_rich_types(self):
        prefix = Prefix.parse("63.168.93.0/24")
        outcome = validate(prefix, 19429, VRPS)
        assert outcome.state is RouteValidity.VALID
        assert outcome.matching and set(outcome.matching) <= set(outcome.covering)

    def test_evidence_is_complete(self):
        # Covered but origin mismatch: invalid, with the covering VRPs
        # as evidence and no matching VRP.
        outcome = validate("63.160.0.0/12", 666, VRPS)
        assert outcome.state is RouteValidity.INVALID
        assert outcome.matching == ()
        assert [int(v.asn) for v in outcome.covering] == [1239]

    def test_unknown_when_uncovered(self):
        outcome = validate("8.8.8.0/24", 15169, VRPS)
        assert outcome.state is RouteValidity.UNKNOWN
        assert outcome.covering == () and outcome.matching == ()

    def test_too_specific_is_invalid(self):
        # Covered by the /12-16 VRP but longer than maxLength.
        outcome = validate("63.160.128.0/17", 1239, VRPS)
        assert outcome.state is RouteValidity.INVALID

