"""Experiment ``fig5L``/``fig5R``: the route-validity matrices of Figure 5.

Measures matrix computation over 63.160.0.0/12 and its subprefixes and
asserts the panel-by-panel claims, including the Side Effect 5 flips.
"""

from conftest import write_artifact

from repro.core import OTHER_ORIGIN, matrix_diff
from repro.experiments import figure5
from repro.rp import RouteValidity


def test_fig5_left(benchmark):
    left = benchmark(figure5)
    # The /12 is unknown for everyone; the worked examples hold.
    assert left.state("63.160.0.0/12", 1239) is RouteValidity.UNKNOWN
    assert left.state("63.160.0.0/12", OTHER_ORIGIN) is RouteValidity.UNKNOWN
    assert left.state("63.174.16.0/20", 17054) is RouteValidity.VALID
    assert left.state("63.174.17.0/24", 17054) is RouteValidity.INVALID
    assert left.state("63.174.16.0/22", 7341) is RouteValidity.VALID
    write_artifact("fig5_left.txt", left.render())


def test_fig5_right_side_effect5(benchmark):
    right = benchmark(figure5, right=True)
    left = figure5()

    # Sprint's new ROA validates its own announcements...
    assert right.state("63.160.0.0/12", 1239) is RouteValidity.VALID
    assert right.state("63.160.0.0/13", 1239) is RouteValidity.VALID
    # ...and flips previously-unknown routes to invalid (Side Effect 5).
    assert left.state("63.163.0.0/16", OTHER_ORIGIN) is RouteValidity.UNKNOWN
    assert right.state("63.163.0.0/16", OTHER_ORIGIN) is RouteValidity.INVALID

    flips = matrix_diff(left, right)
    to_invalid = [f for f in flips if f.after is RouteValidity.INVALID]
    to_valid = [f for f in flips if f.after is RouteValidity.VALID]
    # The paper's deployment hazard: the flood of new invalids dwarfs the
    # handful of newly valid routes.
    assert len(to_invalid) > 10 * len(to_valid)
    assert all(f.before is RouteValidity.UNKNOWN for f in flips)

    write_artifact("fig5_right.txt", right.render())
    write_artifact(
        "fig5_diff.txt",
        "\n".join(
            [f"{len(to_invalid)} routes flipped unknown -> invalid",
             f"{len(to_valid)} routes flipped unknown -> valid", ""]
            + [str(f) for f in flips[:40]]
        ),
    )
