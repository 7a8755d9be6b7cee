"""Experiment ``fig3``: targeted whacking, clean and make-before-break.

Measures planning + execution of the two whacks the paper walks through,
and asserts the shape claims: zero collateral for the grandchild whack,
exactly one suspicious reissue for the Figure 3 case, four-ROA collateral
for the blunt revocation alternative.
"""

from conftest import write_artifact

from repro.core import WhackMethod
from repro.experiments import figure3, revocation_collateral
from repro.repository import Fetcher
from repro.rp import RelyingParty, RouteValidity


def classify_all(world):
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock)
    )
    rp.refresh()
    return rp


def test_fig3_grandchild_whack(benchmark):
    world, plan = benchmark(figure3, 20)
    assert plan.method is WhackMethod.OVERWRITE_SHRINK
    assert plan.collateral_count == 0
    assert plan.suspicious_reissue_count == 0

    rp = classify_all(world)
    assert len(rp.vrps) == 7  # only the target died
    assert rp.classify_parts("63.174.16.0/22", 7341) is RouteValidity.VALID

    # Contrast with the blunt instrument.
    assert len(revocation_collateral()) == 4

    write_artifact("fig3_whack_target20.txt", plan.describe())


def test_fig3_make_before_break(benchmark):
    world, plan = benchmark(figure3, 22)
    assert plan.method is WhackMethod.MAKE_BEFORE_BREAK
    assert plan.suspicious_reissue_count == 1
    assert plan.collateral_count == 0

    rp = classify_all(world)
    # The target is invalid (covered by the reissued /20), not unknown.
    assert rp.classify_parts("63.174.16.0/22", 7341) is RouteValidity.INVALID
    # The /20 route survives via Sprint's reissue.
    assert rp.classify_parts("63.174.16.0/20", 17054) is RouteValidity.VALID

    write_artifact("fig3_whack_target22.txt", plan.describe())
