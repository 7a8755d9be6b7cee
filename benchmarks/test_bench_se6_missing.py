"""Experiment ``se6``: missing-ROA impact (Side Effect 6).

Measures the per-ROA removal analysis over the Figure 2 VRP set and
asserts the paper's worked example: deleting (63.174.16.0/22, AS 7341)
makes its route *invalid*, while deleting an uncovered ROA merely makes
its route unknown.  Also runs the analysis across a synthetic deployment
to quantify how much of the RPKI sits in the dangerous covered position.
"""

from conftest import write_artifact

from repro.core import missing_roa_impact
from repro.experiments import side_effect6
from repro.modelgen import DeploymentConfig, build_deployment
from repro.rp import VRP, RouteValidity, VrpSet


def test_se6_figure2(benchmark):
    table = benchmark(side_effect6)
    impacts = table.impacts

    # The paper's example: the covered /22 goes invalid when missing.
    assert impacts["(63.174.16.0/22, AS7341)"].resulting_state is (
        RouteValidity.INVALID
    )
    # An uncovered ROA goes merely unknown.
    assert impacts["(63.168.93.0/24, AS19429)"].resulting_state is (
        RouteValidity.UNKNOWN
    )
    invalid_count = sum(1 for i in impacts.values() if i.becomes_invalid)
    assert invalid_count == 4  # the four ROAs under the /20 umbrella

    write_artifact("se6_missing.txt", table.render())


def test_se6_deployment_exposure(benchmark):
    """How much of a realistic deployment is exposed to Side Effect 6?"""
    world = build_deployment(DeploymentConfig(
        isps_per_rir=4, customers_per_isp=2, seed=5
    ))
    from repro.core import subtree_roas

    vrps = VrpSet()
    for root, _rir in world.roots:
        for _h, _n, roa in subtree_roas(root):
            for rp_entry in roa.prefixes:
                vrps.add(VRP(
                    rp_entry.prefix, rp_entry.effective_max_length, roa.asn
                ))

    def measure():
        return [missing_roa_impact(vrps, v) for v in vrps]

    impacts = benchmark(measure)
    exposed = sum(1 for i in impacts if i.becomes_invalid)
    # ISPs issue /16-24 maxLength ROAs over space containing customer
    # /24 ROAs... here customers hold disjoint /20s from ISP ROAs, so the
    # customer ROAs sit under no covering ROA; ISP maxlen ROAs cover
    # themselves.  Exposure is structural: assert the analysis runs and
    # classifies every ROA one way or the other.
    assert len(impacts) == len(vrps)
    assert 0 <= exposed <= len(impacts)
    write_artifact(
        "se6_deployment.txt",
        f"{exposed} / {len(impacts)} ROAs in the synthetic deployment "
        "would leave an INVALID route behind if they went missing\n",
    )
