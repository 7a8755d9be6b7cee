"""What ``OriginValidationOutcome`` and ``Route`` are as values.

Both are immutable tuple-backed values (``typing.NamedTuple``), as
``VRP`` is: the tuple type compares, hashes and sorts them, so each
equals the plain tuple of its fields — decided, and stated here, as
``test_vrp_value.py`` states it for ``VRP``.  Their hashes are the ones
the frozen dataclasses they replaced computed, ``hash(fields)``, so a
set of routes iterates in the same order as before.
"""

import copy
import pickle

import pytest

from repro.resources import ASN, Prefix
from repro.rp import VRP, Route, RouteValidity, VrpSet, validate
from repro.rp.origin import OriginValidationOutcome

TABLE = VrpSet([VRP.parse("63.160.0.0/12-13", 1239),
                VRP.parse("63.174.16.0/20", 17054)])


def outcomes():
    return [validate(text, asn, TABLE) for text, asn in (
        ("63.174.16.0/20", 17054),     # valid
        ("63.174.16.0/20", 1239),      # invalid
        ("10.0.0.0/8", 1),             # unknown
    )]


class TestRoute:
    def test_fields_equality_hash_order(self):
        prefix, origin = Prefix.parse("63.174.16.0/20"), ASN(17054)
        route = Route(prefix, origin)
        assert route == Route(prefix=prefix, origin=origin) == (prefix, origin)
        assert hash(route) == hash((prefix, origin))
        assert (route.prefix, route.origin) == (prefix, origin)
        assert sorted([Route(prefix, ASN(2)), Route(prefix, ASN(1))]) == [
            Route(prefix, ASN(1)), Route(prefix, ASN(2))]
        assert Route.parse("63.174.16.0/20", 17054) == route

    def test_str_repr(self):
        route = Route.parse("63.174.16.0/20", 17054)
        assert str(route) == "(63.174.16.0/20, AS17054)"
        assert repr(route) == (
            "Route(prefix=Prefix('63.174.16.0/20'), origin=ASN(17054))")


class TestOutcome:
    def test_states_and_evidence(self):
        valid, invalid, unknown = outcomes()
        assert [o.state for o in (valid, invalid, unknown)] == [
            RouteValidity.VALID, RouteValidity.INVALID, RouteValidity.UNKNOWN]
        assert valid.matching == (VRP.parse("63.174.16.0/20", 17054),)
        assert invalid.matching == () and len(invalid.covering) == 2
        assert unknown.covering == unknown.matching == ()
        assert str(valid) == "(63.174.16.0/20, AS17054) -> valid"

    def test_keyword_and_positional_construction(self):
        for outcome in outcomes():
            fields = (outcome.route, outcome.state, outcome.matching,
                      outcome.covering)
            assert OriginValidationOutcome(*fields) == outcome
            assert OriginValidationOutcome(
                route=fields[0], state=fields[1], matching=fields[2],
                covering=fields[3]) == outcome

    def test_equals_the_plain_tuple_and_hashes_as_it(self):
        for outcome in outcomes():
            fields = (outcome.route, outcome.state, outcome.matching,
                      outcome.covering)
            assert outcome == fields and hash(outcome) == hash(fields)
            assert len({outcome, validate(str(outcome.route.prefix),
                                          outcome.route.origin, TABLE)}) == 1

    @pytest.mark.parametrize("name", ["route", "state", "matching",
                                      "covering", "other"])
    def test_attribute_assignment_raises(self, name):
        outcome = outcomes()[0]
        with pytest.raises(AttributeError):
            setattr(outcome, name, None)
        assert not hasattr(outcome, "__dict__")

    def test_copy_and_pickle_round_trip(self):
        # From protocol 2: a slotted Prefix or ASN inside pickles no lower.
        for value in [*outcomes(), *(o.route for o in outcomes())]:
            for twin in (
                copy.copy(value), copy.deepcopy(value),
                *(pickle.loads(pickle.dumps(value, protocol))
                  for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)),
            ):
                assert type(twin) is type(value)
                assert twin == value and hash(twin) == hash(value)
                assert repr(twin) == repr(value)
