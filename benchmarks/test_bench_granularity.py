"""Experiment ``granularity``: Section 7's takedown-granularity comparison.

"These manipulations are more coarse-grained than domain name seizures,
because current BGP practices limit their granularity to a /24 IPv4
prefix, i.e., 256 IPv4 addresses."  The sweep measures blast radius as a
function of how coarse the target's ROA protection is.
"""

from conftest import write_artifact

from repro.core import MIN_ROUTABLE_V4
from repro.experiments import granularity


def test_granularity_sweep(benchmark):
    sweep = benchmark(granularity)
    rows = sweep.rows

    # The paper's floor: at least 256 addresses per takedown.
    assert MIN_ROUTABLE_V4 == 24
    for _length, radius in rows:
        assert radius.minimum_unreachable == 256
        assert radius.dns_seizure_equivalent == 1

    # Coarser ROAs amplify the disturbance.
    disturbances = [radius.disturbed_addresses for _l, radius in rows]
    assert disturbances == [256, 4096, 65536, 2**20]

    write_artifact("granularity.txt", sweep.render())
