"""What an idle refresh costs besides polling its publication points.

An authority can whack or change an object at any moment, so a relying
party polls every publication point on every refresh: the fetch round
(``RelyingParty._fetch_round``) is one step per point by design.
Nothing after it need be.  An idle refresh reads no point from its
cache, judges no point (no ``IncrementalState.lookup``), re-assembles
no run (no ``ValidationWalk._emit``) and books the clean points in
bulk, so its Python calls outside the fetch round stay flat as the
world grows: one idle refresh each of a world and of one four times as
wide, counted in the same process (the interpreter's own way of
counting moves both sides).
"""

from repro.repository import Fetcher
from repro.rp import PathValidator, RelyingParty
from repro.rp.pathval import ValidationWalk
from repro.rp.incremental import IncrementalState
from repro.telemetry import MetricsRegistry

from ..telemetry.test_tracing import flat_world
from ..test_authority_cardinalities import calls_by_function


def idle_refresh_calls(width: int):
    """The calls, by function, of one idle refresh outside its fetch
    rounds, and the number of points the refresh polled."""
    world, registry = flat_world(width), MetricsRegistry()
    fetcher = Fetcher(world.registry, world.clock, metrics=registry)
    rp = RelyingParty(world.trust_anchors, fetcher, metrics=registry)
    cold = rp.refresh()
    world.clock.advance(1)
    reports = []
    calls = calls_by_function(lambda: reports.append(rp.refresh()),
                              outside=[(rp, "_fetch_round")])
    idle = reports[0]
    assert idle.run == cold.run and not idle.announced and not idle.withdrawn
    assert all(result.unchanged for result in idle.fetches)
    return calls, len(idle.fetches)


def test_an_idle_refresh_outside_its_poll_is_flat_in_points():
    narrow, narrow_points = idle_refresh_calls(1)
    wide, wide_points = idle_refresh_calls(4)
    assert wide_points >= 2 * narrow_points
    for calls in (narrow, wide):
        # No per-point clean check and no re-assembled run.
        assert calls[IncrementalState.lookup.__code__] == 0
        assert calls[ValidationWalk._emit.__code__] == 0
        assert calls[PathValidator._judge_point.__code__] == 0
    assert wide.total() <= 1.1 * narrow.total(), (
        narrow.total(), wide.total())
