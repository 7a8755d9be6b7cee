"""What an idle refresh costs: its poll, and everything besides.

An authority can whack or change an object at any moment, so a relying
party polls every publication point on every refresh: the fetch round
(``RelyingParty._fetch_round``) is one step per point by design, and a
point still at the serial the cache holds costs its serial check and
little else.  Nothing after it need be per point.  An idle refresh
reads no point from its cache, judges no point (no
``ValidationWalk._lookup``) and no trust anchor, re-assembles no run
(no ``ValidationWalk._emit``) and books the clean points in bulk, so its
Python calls outside the fetch round stay flat as the world grows: one
idle refresh each of a world and of one four times as wide, counted in
the same process (the interpreter's own way of counting moves both
sides).  Each width's world is built once for the module.
"""

from functools import cache

from repro.repository import Fetcher
from repro.rp import PathValidator, RelyingParty
from repro.rp.walk import ValidationWalk
from repro.telemetry import MetricsRegistry

from ..telemetry.test_tracing import flat_world
from ..test_authority_cardinalities import calls_by_function

# Python calls per polled unchanged point (8.0 on CPython 3.11, where
# the fetcher that resolved each URI on every poll, hashed its status
# and read the clock three times made 20.0), and calls outside the poll
# (100, where judging every trust anchor again made 157).
POLL_CALLS_PER_POINT = 8.8
CALLS_OUTSIDE_POLL = 111


@cache
def idle_refresh_calls(width: int):
    """The calls, by function, of one idle refresh in all and of one
    outside its fetch rounds, and the number of points each polled."""
    world, registry = flat_world(width), MetricsRegistry()
    fetcher = Fetcher(world.registry, world.clock, metrics=registry)
    rp = RelyingParty(world.trust_anchors, fetcher, metrics=registry)
    cold = rp.refresh()
    reports = []
    world.clock.advance(1)
    everything = calls_by_function(lambda: reports.append(rp.refresh()))
    world.clock.advance(1)
    outside = calls_by_function(lambda: reports.append(rp.refresh()),
                                outside=[(rp, "_fetch_round")])
    for idle in reports:
        assert idle.run == cold.run and not idle.announced
        assert not idle.withdrawn
        assert all(result.unchanged for result in idle.fetches)
        assert len(idle.fetches) == len(cold.fetches)
    return everything, outside, len(cold.fetches)


def test_an_idle_refresh_outside_its_poll_is_flat_in_points():
    _, narrow, narrow_points = idle_refresh_calls(1)
    _, wide, wide_points = idle_refresh_calls(4)
    assert wide_points >= 2 * narrow_points
    for calls in (narrow, wide):
        # No per-point clean check and no re-assembled run.
        assert calls[ValidationWalk._lookup.__code__] == 0
        assert calls[ValidationWalk._emit.__code__] == 0
        assert calls[PathValidator.judge.__code__] == 0
        # The trust anchors' verdicts are the last walk's.
        assert calls[PathValidator.anchor_issue.__code__] == 0
    assert wide.total() <= 1.1 * narrow.total(), (
        narrow.total(), wide.total())
    assert wide.total() <= CALLS_OUTSIDE_POLL, wide.total()


def test_an_unchanged_point_costs_its_poll_a_few_calls():
    narrow_all, narrow, narrow_points = idle_refresh_calls(1)
    wide_all, wide, wide_points = idle_refresh_calls(4)
    poll = ((wide_all.total() - wide.total())
            - (narrow_all.total() - narrow.total()))
    per_point = poll / (wide_points - narrow_points)
    assert per_point <= POLL_CALLS_PER_POINT, per_point
