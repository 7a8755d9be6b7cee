"""Experiment ``discovery``: refresh cost must not depend on tree depth.

The paper's adversary controls its own subtree, including how deep it
delegates.  A relying party walks the certificate tree once per refresh:
every reached CA's publication point is judged exactly once, whether its
cache is empty (the cold refresh discovers the tree level by level) or
already holds every level (the re-refresh).  So a fresh relying party's
second refresh, its validation state cleared first
(``incremental_state.clear()``), must cost what its first did:

1. **Count.**  Re-refresh RSA verifications equal cold verifications,
   exactly, at ``large`` (delegation depth 5, six fetch rounds) and at
   ``internet-small`` (10^4 ROAs, two rounds).
2. **Time.**  Re-refresh wall time stays within 1.25x of the cold
   refresh (best of three each).  Before the worklist, each discovery
   round re-validated the whole cache and the same ratio was ~2.2x at
   ``internet-small``.

Artifact: ``BENCH_discovery.json`` under ``benchmarks/artifacts/``.
"""

import json
import time

import pytest

from conftest import write_artifact

from repro.modelgen import build_deployment, resolve_scale
from repro.repository import Fetcher
from repro.rp import RelyingParty
from repro.simtime import HOUR
from repro.telemetry import MetricsRegistry, default_registry

SCALES = ("large", "internet-small")
REPEATS = 3  # best-of-N wall-clock timing per refresh kind
MAX_REREFRESH_RATIO = 1.25

_RESULTS: dict[str, dict] = {}


def _verify_total() -> float:
    counter = default_registry().get("repro_crypto_verify_total")
    return (counter.value(outcome="accepted")
            + counter.value(outcome="rejected"))


def _measure(scale: str) -> dict:
    if scale in _RESULTS:
        return _RESULTS[scale]
    world = build_deployment(resolve_scale(scale))
    world.clock.advance(HOUR)
    cell: dict = {}
    for _ in range(REPEATS):
        fetcher = Fetcher(world.registry, world.clock,
                          metrics=MetricsRegistry())
        rp = RelyingParty(world.trust_anchors, fetcher,
                          metrics=fetcher.metrics)
        for kind in ("cold", "rerefresh"):
            rp.incremental_state.clear()
            verifies = _verify_total()
            start = time.perf_counter()
            report = rp.refresh()
            seconds = time.perf_counter() - start
            assert report.run.errors() == []
            assert len(report.vrps) == world.roa_count()
            observed = (int(_verify_total() - verifies), report.rounds)
            assert cell.setdefault(f"{kind}_counts", observed) == observed
            cell[f"{kind}_seconds"] = min(
                seconds, cell.get(f"{kind}_seconds", seconds)
            )
    _RESULTS[scale] = cell
    return cell


@pytest.mark.parametrize("scale", SCALES)
def test_rerefresh_verifies_equal_cold(scale):
    cell = _measure(scale)
    cold_verifies, _rounds = cell["cold_counts"]
    rerefresh_verifies, _rounds = cell["rerefresh_counts"]
    assert cold_verifies > 0
    assert rerefresh_verifies == cold_verifies


@pytest.mark.parametrize("scale", SCALES)
def test_rerefresh_time_tracks_cold(scale):
    cell = _measure(scale)
    ratio = cell["rerefresh_seconds"] / cell["cold_seconds"]
    assert ratio <= MAX_REREFRESH_RATIO, (
        f"{scale}: re-refresh {cell['rerefresh_seconds']:.3f}s vs cold "
        f"{cell['cold_seconds']:.3f}s ({ratio:.2f}x)"
    )


def test_write_artifact():
    pins = {}
    scales = {}
    for scale in SCALES:
        cell = _measure(scale)
        cold_verifies, cold_rounds = cell["cold_counts"]
        rerefresh_verifies, rerefresh_rounds = cell["rerefresh_counts"]
        key = scale.replace("-", "_")
        pins[f"{key}_rerefresh_verifies"] = {
            "measured": rerefresh_verifies, "bound": cold_verifies,
            "op": "==",
        }
        pins[f"{key}_rerefresh_over_cold_seconds"] = {
            "measured": round(
                cell["rerefresh_seconds"] / cell["cold_seconds"], 3
            ),
            "bound": MAX_REREFRESH_RATIO, "op": "<=",
        }
        scales[scale] = {
            "cold_seconds": round(cell["cold_seconds"], 4),
            "rerefresh_seconds": round(cell["rerefresh_seconds"], 4),
            "cold_rounds": cold_rounds,
            "rerefresh_rounds": rerefresh_rounds,
            "cold_verifies": cold_verifies,
            "rerefresh_verifies": rerefresh_verifies,
        }
    write_artifact("BENCH_discovery.json", json.dumps({
        "experiment": "discovery",
        "pins": pins,
        "unit": "seconds (best of %d fresh relying parties, state "
                "cleared before each refresh)" % REPEATS,
        "scales": scales,
    }, indent=2) + "\n")
