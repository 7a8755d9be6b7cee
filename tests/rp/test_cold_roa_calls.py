"""What a cold refresh pays per ROA around its two ``pow`` calls.

A cold refresh reads each ROA (``read_roa``, the ``decode`` stage),
judges it into its row (``PathValidator._roa_row``, ``row-build``) and
checks its two signatures (``RsaPublicKey._check_signature``, inside
``verify``).  One cold refresh of a small seeded world, at N and 4N
ROAs, pins the Python calls each makes: per ROA for the first two, per
signature check for the third, each call charged to the innermost of
the three running when it is made (as the stage table charges nested
stages).  Each count is pinned as a share of the Python calls the
reference parser (``tests/rpki/reference_parse.py``) makes for the same
ROAs, counted the same way in the same process — a share, not a count,
so an interpreter that counts calls its own way moves both sides — at
~10 % above its measured value.

And one domain count, exactly: reading a ROA normalizes no resource
set.  Its EE certificate holds one address range and no AS numbers, and
a set of one range or none is built without a sort and a merge.
"""

import gc
import sys
from collections import Counter

import pytest

from repro.crypto import RsaPublicKey
from repro.modelgen import DeploymentConfig, build_deployment
from repro.repository import Fetcher
from repro.resources.intervals import _merged
from repro.rp import PathValidator, RelyingParty
from repro.rpki.roa import read_roa
from repro.telemetry import MetricsRegistry

from ..rpki import reference_parse

STAGES = {
    read_roa.__code__: "decode",
    PathValidator._roa_row.__code__: "row-build",
    RsaPublicKey._check_signature.__code__: "verify",
}

# Measured with CPython 3.11, where the reference parser makes 114 Python
# calls per ROA of this world: a ROA's read makes 55, its row 26 and a
# signature check 1.  Before the reader, the range algebra and the
# signature check lost their per-field overhead they made 65, 46 and 5,
# against 118 for the reference (which builds its sets and keys with the
# same types).  The pins are the shares plus ~10 %.
PINNED_SHARE = {
    "decode": 1.1 * 55 / 114,
    "row-build": 1.1 * 26 / 114,
    "verify": 1.1 * 1 / 114,
}


def calls_by_stage(work) -> dict[str | None, Counter]:
    """The Python calls *work* makes, by function, under the innermost
    of :data:`STAGES` running when each is made (None: under none).  The
    collector is off meanwhile, so no garbage-collection callback is
    counted."""
    counts = {stage: Counter() for stage in (None, *STAGES.values())}
    innermost = [counts[None]]

    def profile(frame, event, _arg):
        if event == "call":
            stage = STAGES.get(frame.f_code)
            if stage is not None:
                innermost.append(counts[stage])
            innermost[-1][frame.f_code] += 1
        elif event == "return" and frame.f_code in STAGES:
            innermost.pop()

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return counts


@pytest.mark.parametrize("roas_per_point", [10, 40])
def test_a_cold_refresh_pays_its_pinned_calls_per_roa(roas_per_point):
    world = build_deployment(DeploymentConfig(
        flat=True, seed=5, isps_per_rir=1, roas_per_isp=roas_per_point))
    metrics = MetricsRegistry()
    rp = RelyingParty(world.trust_anchors,
                      Fetcher(world.registry, world.clock, metrics=metrics),
                      metrics=metrics)
    reports = []
    counts = calls_by_stage(lambda: reports.append(rp.refresh()))
    run = reports[0].run
    roas = [ca.publication_point.get(name) for ca in world.authorities()
            for name in ca.publication_point.names() if name.endswith(".roa")]
    assert run.errors() == [] and run.roa_count == len(roas) \
        == 5 * roas_per_point
    reference = calls_by_stage(
        lambda: [reference_parse.parse_object(blob) for blob in roas])
    per_roa = {
        "decode": counts["decode"].total() / len(roas),
        "row-build": counts["row-build"].total() / len(roas),
        # Per check: the points' manifests, CRLs and certificates are
        # checked too, and their number does not grow with the ROAs.
        "verify": counts["verify"].total()
        / counts["verify"][RsaPublicKey._check_signature.__code__],
    }
    reference_per_roa = reference[None].total() / len(roas)
    for stage, calls in per_roa.items():
        assert calls <= PINNED_SHARE[stage] * reference_per_roa, (
            f"{stage}: {calls:.2f} Python calls, reference "
            f"{reference_per_roa:.2f}")
    assert counts["decode"][_merged.__code__] == 0
