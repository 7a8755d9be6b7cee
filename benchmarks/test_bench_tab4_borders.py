"""Experiment ``tab4``: the cross-border certification audit of Table 4.

Measures the audit over the world seeded with the paper's nine rows and
asserts every row reproduces; also checks the aggregate claim on a purely
synthetic deployment.
"""

from conftest import write_artifact

from repro.experiments import table4
from repro.jurisdiction import TABLE4_ROWS, cross_border_audit, render_table4
from repro.modelgen import DeploymentConfig, build_deployment


def test_tab4_paper_rows(benchmark):
    _world, findings = benchmark(table4)

    by_holder = {f.holder: f for f in findings if f.crosses_border}
    assert len(by_holder) == len(TABLE4_ROWS)
    for row in TABLE4_ROWS:
        finding = by_holder[f"{row.holder}-{row.rc_prefix}"]
        assert set(finding.outside_countries) == set(row.countries), row.holder

    write_artifact("tab4_borders.txt", render_table4(findings))


def test_tab4_synthetic_aggregate(benchmark):
    def run():
        world = build_deployment(DeploymentConfig(
            isps_per_rir=6, customers_per_isp=2, seed=3,
        ))
        return cross_border_audit(world.roots, world.as_country)

    findings = benchmark(run)
    crossing = [f for f in findings if f.crosses_border]
    # "Cross-country certification is not uncommon": with a 15% allocation
    # cross-border rate, a sizeable minority of RCs cover foreign ASes.
    assert 0.05 <= len(crossing) / len(findings) <= 0.6
    write_artifact(
        "tab4_synthetic.txt",
        f"{len(crossing)} / {len(findings)} RCs cover out-of-jurisdiction "
        "ASes (15% cross-border allocation rate)\n\n"
        + render_table4(findings, limit=15),
    )
