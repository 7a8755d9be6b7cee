"""Property tests: the algebraic laws of RFC 6811 classification.

The side-effect analyses implicitly rely on these monotonicity laws;
hypothesis pins them down over random VRP sets and routes:

- adding a VRP never un-validates a valid route;
- adding a VRP never rescues an invalid route to *unknown* (only to valid);
- removing a VRP never makes an unknown route invalid;
- classification depends only on covering VRPs (locality).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resources import ASN, Afi, Prefix
from repro.rp import VRP, Route, RouteValidity, VrpSet, validate


def state_of(route, vrps):
    return validate(route.prefix, route.origin, vrps).state


@st.composite
def prefixes(draw, min_length=8, max_length=24):
    length = draw(st.integers(min_value=min_length, max_value=max_length))
    addr = draw(st.integers(min_value=0, max_value=2**32 - 1))
    network = (addr >> (32 - length)) << (32 - length)
    return Prefix(Afi.IPV4, network, length)


@st.composite
def vrps(draw):
    prefix = draw(prefixes())
    max_length = draw(st.integers(min_value=prefix.length, max_value=28))
    return VRP(prefix, max_length, ASN(draw(st.integers(1, 1000))))


@st.composite
def routes(draw):
    return Route(draw(prefixes(max_length=28)),
                 ASN(draw(st.integers(1, 1000))))


vrp_sets = st.lists(vrps(), max_size=8).map(VrpSet)


@given(routes(), vrp_sets, vrps())
@settings(max_examples=200)
def test_adding_vrp_never_unvalidates(route, vrp_set, extra):
    before = state_of(route, vrp_set)
    after = state_of(route, VrpSet(list(vrp_set) + [extra]))
    if before is RouteValidity.VALID:
        assert after is RouteValidity.VALID


@given(routes(), vrp_sets, vrps())
@settings(max_examples=200)
def test_adding_vrp_never_rescues_invalid_to_unknown(route, vrp_set, extra):
    before = state_of(route, vrp_set)
    after = state_of(route, VrpSet(list(vrp_set) + [extra]))
    if before is RouteValidity.INVALID:
        assert after in (RouteValidity.INVALID, RouteValidity.VALID)


@given(routes(), vrp_sets, vrps())
@settings(max_examples=200)
def test_removing_vrp_never_invalidates_unknown(route, vrp_set, extra):
    # Construct (S ∪ {extra}) and compare against S: removal is the
    # reverse direction of the previous law.
    bigger = VrpSet(list(vrp_set) + [extra])
    with_extra = state_of(route, bigger)
    without = state_of(route, vrp_set)
    if with_extra is RouteValidity.UNKNOWN:
        assert without is RouteValidity.UNKNOWN


@given(routes(), vrp_sets)
@settings(max_examples=200)
def test_classification_is_local_to_covering_vrps(route, vrp_set):
    covering_only = VrpSet(
        v for v in vrp_set if v.prefix.covers(route.prefix)
    )
    assert state_of(route, vrp_set) is state_of(route, covering_only)


@given(routes(), vrp_sets)
@settings(max_examples=200)
def test_states_partition(route, vrp_set):
    state = state_of(route, vrp_set)
    covering = list(vrp_set.covering(route.prefix))
    matching = [
        v for v in covering if v.matches(route.prefix, route.origin)
    ]
    if matching:
        assert state is RouteValidity.VALID
    elif covering:
        assert state is RouteValidity.INVALID
    else:
        assert state is RouteValidity.UNKNOWN


@given(routes(), vrp_sets)
@settings(max_examples=100)
def test_side_effect_6_characterization(route, vrp_set):
    """Removing a route's matching VRP yields INVALID iff a covering
    survivor exists — the exact boundary of Side Effect 6."""
    matching = [
        v for v in vrp_set.covering(route.prefix)
        if v.matches(route.prefix, route.origin)
    ]
    if not matching:
        return
    survivors = VrpSet([v for v in vrp_set if v not in matching])
    state = state_of(route, survivors)
    has_cover = any(True for _ in survivors.covering(route.prefix))
    if has_cover:
        expected = (
            RouteValidity.VALID
            if any(v.matches(route.prefix, route.origin)
                   for v in survivors.covering(route.prefix))
            else RouteValidity.INVALID
        )
        assert state is expected
    else:
        assert state is RouteValidity.UNKNOWN
