"""Experiment ``tab6``: the local-policy tradeoff table.

Measures the full 2x2 experiment (two propagations per cell across the
reference topology) and asserts the paper's verdicts cell by cell.
"""

from conftest import write_artifact

from repro.bgp import LocalPolicy
from repro.experiments import table6


def test_tab6_policy_tradeoff(benchmark):
    table = benchmark(table6)

    drop_bgp = table.cell(LocalPolicy.DROP_INVALID, "routing-attack")
    drop_rpki = table.cell(LocalPolicy.DROP_INVALID, "rpki-manipulation")
    depref_bgp = table.cell(LocalPolicy.DEPREF_INVALID, "routing-attack")
    depref_rpki = table.cell(LocalPolicy.DEPREF_INVALID, "rpki-manipulation")

    # Row 1: drop invalid — reachable under routing attack, offline under
    # RPKI manipulation.
    assert drop_bgp.prefix_reachable and drop_bgp.hijacked_fraction == 0.0
    assert drop_rpki.reachable_fraction == 0.0

    # Row 2: depref invalid — subprefix hijacks possible, reachable under
    # RPKI manipulation.
    assert not depref_bgp.prefix_reachable
    assert depref_bgp.hijacked_fraction > 0.5
    assert depref_rpki.prefix_reachable

    write_artifact("tab6_policies.txt", table.render())
