"""Experiment ``fig2``: the model RPKI of Figure 2, built and validated.

Measures end-to-end construction plus full relying-party validation of
the paper's example hierarchy, and asserts the census the figure shows.
"""

from conftest import write_artifact

from repro.experiments import figure2


def test_fig2_model(benchmark):
    model = benchmark(figure2)
    world, rp, report = model.world, model.rp, model.report

    # The hierarchy of Figure 2.
    assert world.sprint.parent is world.arin
    assert {c.handle for c in world.sprint.children()} == {
        "ETB S.A. ESP.", "Continental Broadband"
    }
    # Two RCs and two ROAs issued by Sprint; five ROAs at Continental.
    assert len(world.sprint.issued_certs) == 2
    assert len(world.sprint.issued_roas) == 2
    assert len(world.continental.issued_roas) == 5

    # Validation is clean and complete.
    assert report.run.errors() == []
    assert len(rp.vrps) == 8
    assert len(report.run.validated_cas) == 4

    write_artifact("fig2_model.txt", model.render())
