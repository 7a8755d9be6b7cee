"""Experiment ``scale``: deployment size vs validation cost (footnote 4).

The paper notes production deployment was ~1200-1400 ROAs, "less than 1%
of projected deployment."  This benchmark sweeps the synthetic generator
across deployment scales and measures full relying-party validation
(fetch + path validation + VRP extraction), the operation whose cost
growth determines whether relying parties can keep their caches complete
— completeness being the property Side Effect 6 turns on.

Two families:

1. The hierarchical shapes (tens to hundreds of ROAs) time the full
   refresh under pytest-benchmark, as before.
2. The flat Internet-scale family (:data:`repro.modelgen.INTERNET_SCALES`,
   10⁴–10⁵ ROAs) pins the projected-deployment claims in
   ``BENCH_scale.json``:

   - a cold refresh completes inside a wall-clock and per-VRP budget;
   - a warm zero-churn refresh performs **zero** RSA verifications;
   - renewing one ROA costs exactly **4** RSA verifications — O(1) in
     deployment size, the same constant the hierarchical worlds pin;
   - a default refresh's peak memory stays bounded by a small constant
     plus a per-ROA term far below parsed-object size (no
     full-deployment materialization);
   - one cold refresh of the 2,500-ROA world of ``benchmarks/e2e`` reads
     every object in one pass: **zero** generic ``decode`` node visits,
     **zero** leaf-writer calls (nothing read is written again), at
     most one ``sha256_hex`` per parsed
     object plus one per publication point, and the same 5,165 RSA
     verifications as ever;
   - over that world's VRP table, finding the covering VRPs of a route
     takes at most one table probe per prefix length in use and builds
     no ``Prefix``.

   ``REPRO_BENCH_SCALE=full`` extends the sweep to ``internet`` and
   ``internet-large`` (10⁵ ROAs; minutes of keygen+build).

Artifacts: ``scale_sweep.txt`` and ``BENCH_scale.json`` under
``benchmarks/artifacts/``.
"""

import dataclasses
import json
import os
import random
import sys
import time
import tracemalloc

import pytest

from conftest import write_artifact

from repro.crypto import encoding as ctlv
from repro.crypto import sha256_hex
from repro.modelgen import INTERNET_SCALES, DeploymentConfig, build_deployment
from repro.repository import Fetcher
from repro.resources import ASN, Afi, Prefix
from repro.rp import VRP, RelyingParty, VrpSet
from repro.rpki.roa import read_roa
from repro.simtime import HOUR
from repro.telemetry import default_registry

SCALES = {
    "small": DeploymentConfig(isps_per_rir=2, customers_per_isp=1, seed=21),
    "medium": DeploymentConfig(isps_per_rir=6, customers_per_isp=2, seed=21),
    "large": DeploymentConfig(isps_per_rir=12, customers_per_isp=3, seed=21),
}

# The default run exercises internet-small (10^4 ROAs); the full sweep
# (REPRO_BENCH_SCALE=full) adds the 3x10^4 and 10^5 worlds, whose keygen
# and build take minutes on one core.
INTERNET_ENABLED = ["internet-small"]
if os.environ.get("REPRO_BENCH_SCALE") == "full":
    INTERNET_ENABLED += ["internet", "internet-large"]

# Pinned bounds (generous for slow CI; typical measurements in comments).
MAX_COLD_SECONDS = 60.0        # internet-small cold refresh: ~3.5 s
MAX_COLD_PER_VRP_MS = 3.0      # ~0.35 ms/VRP measured
WARM_VERIFIES = 0              # zero-churn incremental refresh
CHURN_VERIFIES = 4             # manifest + CRL + EE cert + ROA, any scale
# Streaming peak: small constant + per-ROA term.  Measured 8.7 MB at
# 10^4 ROAs (~0.9 KB/ROA: VRP set + its index + the
# ROA rows + one point's transient parses); the bound is 2.5x
# that.  A held parse is ~7 KB/ROA (86 MB at 10^4), far past it.
PEAK_BASE_BYTES = 2_000_000
PEAK_PER_ROA_BYTES = 2_000

# One cold refresh of the e2e `bench` world (internet-small's shape at a
# quarter of its width): 2,500 ROAs + 2,500 embedded EE certificates +
# 50 RCs + 55 CRLs + 55 manifests in 55 publication points.
BENCH_WORLD = dataclasses.replace(
    INTERNET_SCALES["internet-small"], isps_per_rir=10,
)
COLD_PARSED_OBJECTS = 5_160
COLD_POINTS = 55
COLD_RSA_VERIFIES = 5_165      # + the five trust anchors' self-signatures
MAX_COLD_SHA256_HEX = COLD_PARSED_OBJECTS + COLD_POINTS   # 15,800 before

COVERING_QUERIES = 2_000

_RESULTS: dict[str, tuple[int, int]] = {}
_INTERNET: dict[str, dict] = {}
_PINS: dict[str, dict] = {}
_WORLDS: dict[str, object] = {}


def _world(scale: str):
    """Build (once per module) the named Internet-scale world."""
    if scale not in _WORLDS:
        start = time.perf_counter()
        world = build_deployment(INTERNET_SCALES[scale])
        _WORLDS[scale] = (world, time.perf_counter() - start)
    return _WORLDS[scale]


def _verify_total() -> float:
    counter = default_registry().get("repro_crypto_verify_total")
    return (counter.value(outcome="accepted")
            + counter.value(outcome="rejected"))


def _pin(name: str, measured, bound, op: str) -> None:
    _PINS[name] = {"measured": measured, "bound": bound, "op": op}


@pytest.mark.parametrize("scale", list(SCALES))
def test_scale_validation(benchmark, scale):
    world = build_deployment(SCALES[scale])

    def validate():
        rp = RelyingParty(
            world.trust_anchors,
            Fetcher(world.registry, world.clock),
        )
        report = rp.refresh()
        return rp, report

    rp, report = benchmark(validate)
    assert report.run.errors() == []
    assert len(rp.vrps) == world.roa_count()
    _RESULTS[scale] = (world.roa_count(), len(world.authorities()))

    if scale == "large":
        lines = ["scale    ROAs  authorities"]
        for name, (roas, authorities) in _RESULTS.items():
            lines.append(f"{name:<8} {roas:>4}  {authorities:>4}")
        lines.append("")
        lines.append("(timings in the pytest-benchmark table)")
        write_artifact("scale_sweep.txt", "\n".join(lines))


@pytest.mark.parametrize("scale", INTERNET_ENABLED)
def test_internet_cold_refresh_bounded(scale):
    world, build_seconds = _world(scale)
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock),
    )
    start = time.perf_counter()
    report = rp.refresh()
    cold_seconds = time.perf_counter() - start

    roas = world.roa_count()
    assert roas >= 10_000
    assert report.run.errors() == []
    assert len(rp.vrps) == roas
    per_vrp_ms = cold_seconds / roas * 1000
    assert cold_seconds <= MAX_COLD_SECONDS * max(1, roas // 10_000)
    assert per_vrp_ms <= MAX_COLD_PER_VRP_MS

    _INTERNET.setdefault(scale, {}).update({
        "roas": roas,
        "authorities": len(world.authorities()),
        "build_seconds": round(build_seconds, 3),
        "cold_seconds": round(cold_seconds, 3),
        "cold_per_vrp_ms": round(per_vrp_ms, 4),
        "rounds": report.rounds,
    })
    if scale == "internet-small":
        _pin("cold_refresh_seconds", round(cold_seconds, 3),
             MAX_COLD_SECONDS, "<=")
        _pin("cold_per_vrp_ms", round(per_vrp_ms, 4),
             MAX_COLD_PER_VRP_MS, "<=")


@pytest.mark.parametrize("scale", INTERNET_ENABLED)
def test_internet_streaming_memory_bounded(scale):
    # The bound scales with a per-ROA term far below parsed-object size,
    # so it is unreachable if the refresh materializes the deployment's
    # objects — the assertion behind "streaming".
    world, _build_seconds = _world(scale)
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock),
    )
    tracemalloc.start()
    report = rp.refresh()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    roas = world.roa_count()
    bound = PEAK_BASE_BYTES + PEAK_PER_ROA_BYTES * roas
    assert report.run.roa_count == roas
    assert len(rp.vrps) == roas
    assert peak <= bound, (
        f"{scale}: streaming refresh peaked at {peak / 1e6:.1f} MB "
        f"(bound {bound / 1e6:.1f} MB) — objects are being materialized"
    )
    _INTERNET.setdefault(scale, {})["streaming_peak_mb"] = round(peak / 1e6, 2)
    if scale == "internet-small":
        _pin("streaming_peak_mb", round(peak / 1e6, 2),
             round(bound / 1e6, 2), "<=")


def test_internet_warm_and_churn_verifies_pinned():
    world, _build_seconds = _world("internet-small")
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock),
    )
    rp.refresh()                # cold: populates memos and point results

    world.clock.advance(HOUR)
    before = _verify_total()
    start = time.perf_counter()
    warm_report = rp.refresh()
    warm_seconds = time.perf_counter() - start
    warm_verifies = _verify_total() - before
    assert warm_verifies == WARM_VERIFIES, (
        f"zero-churn warm refresh performed {warm_verifies:.0f} RSA "
        "verifications"
    )
    assert len(warm_report.vrps) == world.roa_count()

    # Renew one ROA: exactly one publication point replays, at the same
    # 4-verification cost the 40-ROA hierarchical worlds pin — O(1) in
    # deployment size.
    churned = next(ca for ca in world.authorities() if ca.issued_roas)
    churned.renew_roa(next(iter(churned.issued_roas)))
    world.clock.advance(HOUR)
    before = _verify_total()
    start = time.perf_counter()
    churn_report = rp.refresh()
    churn_seconds = time.perf_counter() - start
    churn_verifies = _verify_total() - before
    assert churn_verifies == CHURN_VERIFIES, (
        f"one-ROA churn performed {churn_verifies:.0f} RSA verifications "
        f"(pinned {CHURN_VERIFIES})"
    )
    assert len(churn_report.vrps) == world.roa_count()

    _INTERNET.setdefault("internet-small", {}).update({
        "warm_seconds": round(warm_seconds, 3),
        "warm_rsa_verifies": int(warm_verifies),
        "churn_seconds": round(churn_seconds, 3),
        "churn_rsa_verifies": int(churn_verifies),
    })
    _pin("warm_zero_churn_rsa_verifies", int(warm_verifies),
         WARM_VERIFIES, "==")
    _pin("one_roa_churn_rsa_verifies", int(churn_verifies),
         CHURN_VERIFIES, "==")


def _count_calls(patch, function) -> list:
    """Count calls of *function* through every ``repro`` module's name
    for it (callers bind it with ``from ... import``)."""
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(None)
        return function(*args, **kwargs)

    name = function.__name__
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, name, None) is function):
            patch.setattr(module, name, counted)
    return calls


def test_cold_refresh_reads_each_object_once(monkeypatch):
    """Counts, not seconds: a noisy box cannot blur these."""
    world = build_deployment(BENCH_WORLD)
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock),
    )
    # The trust anchors are configured, not fetched: a relying party
    # hashes each once for its lifetime (5 more on a first-ever refresh).
    for anchor in world.trust_anchors:
        anchor.hash_hex
    before = _verify_total()
    with monkeypatch.context() as patch:
        generic_nodes = _count_calls(patch, ctlv._read_value)
        writes = [_count_calls(patch, writer) for writer in (
            ctlv.write_int, ctlv.write_str, ctlv.write_bytes,
            ctlv.write_container,
        )]
        digests = _count_calls(patch, sha256_hex)
        roa_reads = _count_calls(patch, read_roa)
        report = rp.refresh()
    verifies = _verify_total() - before

    assert report.run.errors() == []
    assert report.run.roa_count == world.roa_count() == 2_500
    # One read per file: a ROA straight to its row, anything else
    # through the parse memo.
    memo = rp.incremental_state.parse_memo
    assert (len(roa_reads), memo.misses, memo.hits) == (2_500, 160, 0)
    assert len(generic_nodes) == 0, "a refresh went through generic decode"
    encodes = sum(map(len, writes))
    assert encodes == 0, "a refresh re-encoded something it had read"
    assert len(digests) <= MAX_COLD_SHA256_HEX
    assert verifies == COLD_RSA_VERIFIES

    _pin("cold_generic_decode_nodes", len(generic_nodes), 0, "==")
    _pin("cold_encode_calls", encodes, 0, "==")
    _pin("cold_sha256_hex_calls", len(digests), MAX_COLD_SHA256_HEX, "<=")
    _pin("cold_rsa_verifies", int(verifies), COLD_RSA_VERIFIES, "==")

    # The generated world stores one prefix length (/24), so the same
    # count is also taken over a seeded table of thirteen.
    rng = random.Random(89)
    mixed = VrpSet(
        VRP(Prefix(Afi.IPV4, rng.getrandbits(length) << (32 - length), length),
            32, ASN(64_500))
        for length in (rng.randint(12, 24) for _ in range(2_500)))
    _covering_probes("bench", rp.vrps)
    _covering_probes("mixed", mixed)


def _covering_probes(name: str, vrps: VrpSet) -> None:
    """Counts again: what one ``covering()`` costs over *vrps*, by
    ``sys.setprofile`` — probes are ``dict.get`` on the index's own
    tables, builds are ``Prefix.__init__`` frames."""
    index = vrps._index
    tables = {id(table) for table in index._tables[Afi.IPV4.bits].values()}
    lengths_in_use = len(tables)
    rng = random.Random(97)
    stored = sorted(vrps)
    queries = []
    for _ in range(COVERING_QUERIES // 2):
        # A route inside a VRP (a hit, announced too specifically or
        # not), and one anywhere (nearly always a miss).
        inside = rng.choice(stored).prefix
        length = rng.randint(inside.length, 32)
        host_bits = 32 - length
        network = inside.network | (
            rng.getrandbits(32 - inside.length) >> host_bits << host_bits
            if length > inside.length else 0)
        queries.append(Prefix(Afi.IPV4, network, length))
        length = rng.randint(8, 32)
        queries.append(Prefix(
            Afi.IPV4, rng.getrandbits(length) << (32 - length), length))
    counts = {"probes": 0, "built": 0}
    build = Prefix.__init__.__code__

    def watch(frame, event, arg):
        if event == "c_call":
            if arg.__name__ == "get" and id(arg.__self__) in tables:
                counts["probes"] += 1
        elif event == "call" and frame.f_code is build:
            counts["built"] += 1

    worst = hits = 0
    for query in queries:
        before = counts["probes"]
        sys.setprofile(watch)
        try:
            found = list(index.covering(query))
        finally:
            sys.setprofile(None)
        worst = max(worst, counts["probes"] - before)
        hits += bool(found)
        assert [bucket[0].prefix for _, bucket in found] == sorted(
            {vrp.prefix for vrp in stored if vrp.prefix.covers(query)},
            key=lambda prefix: prefix.length)
    assert 0 < hits < len(queries)
    assert worst <= lengths_in_use <= 33
    assert counts["built"] == 0
    _pin(f"covering_max_probes_per_query_{name}", worst, lengths_in_use, "<=")
    _pin(f"covering_prefixes_built_{name}", counts["built"], 0, "==")


def test_write_artifact():
    assert "internet-small" in _INTERNET
    for name in ("cold_refresh_seconds", "cold_per_vrp_ms",
                 "streaming_peak_mb", "warm_zero_churn_rsa_verifies",
                 "one_roa_churn_rsa_verifies", "cold_generic_decode_nodes",
                 "cold_encode_calls", "cold_sha256_hex_calls",
                 "cold_rsa_verifies", "covering_max_probes_per_query_bench",
                 "covering_max_probes_per_query_mixed",
                 "covering_prefixes_built_bench",
                 "covering_prefixes_built_mixed"):
        assert name in _PINS, f"pin {name} never recorded"
    write_artifact("BENCH_scale.json", json.dumps({
        "experiment": "scale",
        "pins": _PINS,
        "internet_scales": _INTERNET,
        "sweep": {
            name: {"roas": roas, "authorities": authorities}
            for name, (roas, authorities) in _RESULTS.items()
        },
        "full_sweep": os.environ.get("REPRO_BENCH_SCALE") == "full",
    }, indent=2) + "\n")
