"""Experiment ``se7``: transient fault -> persistent failure (Section 6).

Measures the closed-loop simulation (six epochs of fetch + validate +
route) and asserts the paper's chain of events under both policies.
"""

from conftest import write_artifact

from repro.bgp import LocalPolicy
from repro.experiments import circular_dependencies, side_effect7


def test_se7_drop_invalid_persistent(benchmark):
    run = benchmark(side_effect7, LocalPolicy.DROP_INVALID)
    loop = run.loop
    # The fault was transient; the failure is not.
    assert not loop.route_is_valid("63.174.16.0/20", 17054)
    assert not loop.can_reach("63.174.23.0", 17054)
    assert loop.epochs[-1].unreachable_points == [
        "rsync://continental.example/repo/"
    ]

    write_artifact("se7_drop_invalid.txt", run.render())


def test_se7_depref_invalid_heals(benchmark):
    run = benchmark(side_effect7, LocalPolicy.DEPREF_INVALID)
    loop = run.loop
    assert loop.route_is_valid("63.174.16.0/20", 17054)
    assert loop.can_reach("63.174.23.0", 17054)
    assert not loop.epochs[-1].unreachable_points

    write_artifact("se7_depref_invalid.txt", run.render())


def test_se7_static_analysis(benchmark):
    analysis = benchmark(circular_dependencies)
    traps = [c for c in analysis.cycles() if c.is_persistent_failure_trap]
    assert len(traps) == 1
    assert traps[0].cycle == ("rsync://continental.example/repo/",)
