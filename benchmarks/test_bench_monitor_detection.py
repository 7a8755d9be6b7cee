"""Experiment ``monitor``: detection of whack campaigns hidden in churn.

The paper's open problem, quantified: over a churny history with attacks
injected at known epochs, score the monitor's suspicious alerts.  The
shrink-based whacks must always be caught (their diff signature is
unambiguous); precision is dragged below 1.0 by sloppy operators who
delete ROAs without CRL entries — exactly the churn-vs-abuse ambiguity
the paper predicts.
"""

from conftest import write_artifact

from repro.experiments import monitor_detection
from repro.monitor import AlertKind


def test_monitor_detects_whacks_in_clean_churn(benchmark):
    score = benchmark(monitor_detection, 0.0).score()
    # With disciplined operators (every retirement on the CRL), shrink
    # detection is perfect.
    assert score.recall == 1.0
    assert score.precision == 1.0
    assert score.alerts_by_kind.get(AlertKind.RC_SHRUNK, 0) >= 2
    write_artifact("monitor_clean.txt", score.render())


def test_monitor_precision_degrades_with_sloppy_churn(benchmark):
    score = benchmark(monitor_detection, 0.8).score()
    # Attacks are still always caught...
    assert score.recall == 1.0
    # ...but sloppy deletions are indistinguishable from stealthy whacks,
    # so precision drops below the clean-churn case: the paper's
    # "distinguishing abusive behavior from normal churn could be
    # difficult", measured.
    assert score.precision < 1.0
    assert score.alerts_by_kind.get(AlertKind.STEALTHY_DELETION, 0) >= 1
    write_artifact("monitor_sloppy.txt", score.render())
