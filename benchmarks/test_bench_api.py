"""Experiment ``api``: the query plane's throughput and its consistency.

Two claims:

1. **Throughput.**  The service sustains **>= 10,000 queries/second**
   (wall clock) over a mixed stream of RFC 6811 classifications and
   VRP lookups against a medium deployment, with the content-hash-keyed
   LRU doing the heavy lifting — the measured cache hit rate is reported
   alongside the rate.
2. **Zero divergence under chaos.**  Across a 100-cycle campaign of ROA
   churn (revoke/renew/issue) and injected delivery faults — with every
   refresh driven *behind the service's back* — each served
   classification equals a direct :func:`repro.rp.origin.validate`
   against the relying party's live VRP set, every cycle.  The cache and
   epoch machinery may make answers fast; they must never make them
   stale.

Plus the request path's *counts*, which a noisy machine cannot blur: a
cache hit parses nothing and classifies nothing, a miss parses once and
queries the index once, no request resolves a label child, and the
registry's tallies agree with each other.

Artifact: ``BENCH_api.json`` under ``benchmarks/artifacts/``.
"""

import json
import random
import time

from conftest import write_artifact

from repro.api import ApiConfig, QueryService
from repro.modelgen import INTERNET_SCALES, DeploymentConfig, build_deployment
from repro.repository import FaultInjector, FaultKind, Fetcher
from repro.resources import Prefix
from repro.rp import RelyingParty, VrpSet
from repro.rp.origin import OriginValidationOutcome, validate
from repro.simtime import HOUR
from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import Metric

MEDIUM = DeploymentConfig(
    isps_per_rir=4, customers_per_isp=2, suballocation_depth=1, seed=21,
)
THROUGHPUT_QUERIES = 30_000
MIN_QPS = 10_000
CHAOS_CYCLES = 100

_RESULTS: dict[str, dict] = {}


def _service_over(world, faults=None):
    registry = MetricsRegistry()
    fetcher = Fetcher(world.registry, world.clock, metrics=registry,
                      faults=faults)
    rp = RelyingParty(world.trust_anchors, fetcher,
                      metrics=registry)
    service = QueryService(rp, metrics=registry, config=ApiConfig(
        cache_capacity=8192, rate_limit=None,
    ))
    return rp, service


def test_sustained_throughput_over_10k_qps():
    world = build_deployment(MEDIUM)
    rp, service = _service_over(world)
    world.clock.advance(HOUR)
    service.refresh()

    # A mixed, seeded query stream: authorized routes, forged origins,
    # too-specific announcements, uncovered space, plus both lookups.
    rng = random.Random(5)
    vrps = sorted(rp.vrps)
    queries = []
    for vrp in vrps:
        queries.append(("validate", vrp.prefix, int(vrp.asn)))
        queries.append(("validate", vrp.prefix, 64666))
        queries.append(("prefix", str(vrp.prefix), None))
        queries.append(("asn", int(vrp.asn), None))
    queries.append(("validate", "198.51.100.0/24", 64496))  # unknown space
    rng.shuffle(queries)

    served = 0
    start = time.perf_counter()
    while served < THROUGHPUT_QUERIES:
        kind, a, b = queries[served % len(queries)]
        if kind == "validate":
            response = service.validate_route(a, b)
        elif kind == "prefix":
            response = service.lookup_prefix(a)
        else:
            response = service.lookup_asn(a)
        assert response.ok
        served += 1
    elapsed = time.perf_counter() - start

    qps = served / elapsed
    hits, misses, evictions = service.cache_stats()
    hit_rate = hits / (hits + misses)
    assert qps >= MIN_QPS, (
        f"query plane too slow: {qps:,.0f} qps over {served} queries "
        f"(need {MIN_QPS:,}); cache hit rate {hit_rate:.1%}"
    )
    # The stream repeats, so the steady state must be cache-served.
    assert hit_rate > 0.9
    assert evictions == 0
    _RESULTS["throughput"] = {
        "queries": served,
        "seconds": round(elapsed, 4),
        "qps": round(qps),
        "min_qps_required": MIN_QPS,
        "cache_hit_rate": round(hit_rate, 4),
        "evictions": evictions,
        "vrps": len(vrps),
    }


def _mutate(rng, world):
    """One cycle's authority churn: revoke, renew, or issue somewhere."""
    cas = [ca for ca in world.authorities() if ca.issued_roas]
    ca = rng.choice(cas)
    action = rng.choice(("revoke", "renew", "renew"))
    name = rng.choice(sorted(ca.issued_roas))
    if action == "revoke":
        ca.revoke_roa(name)
    else:
        ca.renew_roa(name)
    return f"{action}:{ca.handle}/{name}"


def test_100_cycle_campaign_serves_zero_stale_answers():
    world = build_deployment(MEDIUM)
    faults = FaultInjector(seed=9, background_rate=0.02)
    rp, service = _service_over(world, faults=faults)
    world.clock.advance(HOUR)
    service.refresh()

    rng = random.Random(17)
    points = sorted(str(ca.sia) for ca in world.authorities() if ca.sia)
    probes = sorted(rp.vrps)[:40]
    divergences = 0
    serials = [service.serial]
    for cycle in range(CHAOS_CYCLES):
        if rng.random() < 0.5:
            _mutate(rng, world)
        if rng.random() < 0.3:
            faults.schedule(
                rng.choice((FaultKind.DROP, FaultKind.CORRUPT,
                            FaultKind.TRUNCATE, FaultKind.UNREACHABLE)),
                rng.choice(points),
            )
        world.clock.advance(HOUR)
        rp.refresh()  # behind the service's back, every cycle
        live = rp.vrps
        for vrp in probes:
            for origin in (int(vrp.asn), 64666):
                served = service.validate_route(vrp.prefix, origin).payload
                direct = validate(vrp.prefix, origin, live)
                if served.state is not direct.state \
                        or served.covering != direct.covering:
                    divergences += 1
        assert service.content_hash == live.content_hash()
        serials.append(service.serial)

    assert divergences == 0, f"{divergences} stale answers served"
    assert serials == sorted(serials), "epoch serial went backwards"
    assert serials[-1] > 1, "campaign never produced a new epoch"
    hits, misses, _evictions = service.cache_stats()
    _RESULTS["campaign"] = {
        "cycles": CHAOS_CYCLES,
        "divergences": divergences,
        "final_serial": serials[-1],
        "probe_checks": CHAOS_CYCLES * len(probes) * 2,
        "cache_hit_rate": round(hits / (hits + misses), 4),
    }


def test_internet_scale_throughput():
    """Re-bench the qps floor at an Internet-scale VRP count (10^4).

    The mixed stream is longer than the LRU, so most queries miss the
    response cache and the floor is carried by the prefix index and ASN
    indexes themselves — a strictly harder configuration than the
    cache-served medium deployment above.
    """
    world = build_deployment(INTERNET_SCALES["internet-small"])
    rp, service = _service_over(world)
    world.clock.advance(HOUR)
    service.refresh()

    rng = random.Random(5)
    vrps = sorted(rp.vrps)
    queries = []
    for vrp in vrps:
        queries.append(("validate", vrp.prefix, int(vrp.asn)))
        queries.append(("validate", vrp.prefix, 64666))
        queries.append(("prefix", str(vrp.prefix), None))
        queries.append(("asn", int(vrp.asn), None))
    rng.shuffle(queries)

    served = 0
    start = time.perf_counter()
    while served < THROUGHPUT_QUERIES:
        kind, a, b = queries[served % len(queries)]
        if kind == "validate":
            response = service.validate_route(a, b)
        elif kind == "prefix":
            response = service.lookup_prefix(a)
        else:
            response = service.lookup_asn(a)
        assert response.ok
        served += 1
    elapsed = time.perf_counter() - start

    qps = served / elapsed
    hits, misses, _evictions = service.cache_stats()
    assert qps >= MIN_QPS, (
        f"query plane too slow at 10^4 VRPs: {qps:,.0f} qps (need "
        f"{MIN_QPS:,})"
    )
    _RESULTS["internet"] = {
        "scale": "internet-small",
        "vrps": len(vrps),
        "queries": served,
        "seconds": round(elapsed, 4),
        "qps": round(qps),
        "min_qps_required": MIN_QPS,
        "cache_hit_rate": round(hits / (hits + misses), 4),
    }


def _calls(run, *targets) -> list[int]:
    """How many times ``run()`` calls each ``(owner, name)`` function."""
    counts = [0] * len(targets)
    saved = [owner.__dict__[name] for owner, name in targets]
    for index, ((owner, name), raw) in enumerate(zip(targets, saved)):
        wrap = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else (lambda function: function)
        function = getattr(raw, "__func__", raw)

        def counting(*args, _function=function, _index=index, **kwargs):
            counts[_index] += 1
            return _function(*args, **kwargs)

        setattr(owner, name, wrap(counting))
    try:
        run()
    finally:
        for (owner, name), raw in zip(targets, saved):
            setattr(owner, name, raw)
    return counts


def test_request_path_counts():
    world = build_deployment(MEDIUM)
    rp, service = _service_over(world)
    world.clock.advance(HOUR)
    service.refresh()
    vrps = sorted(rp.vrps)
    queries = [(str(vrp.prefix), int(vrp.asn)) for vrp in vrps]
    watched = ((Prefix, "parse"), (OriginValidationOutcome, "__new__"),
               (VrpSet, "covering"), (Metric, "labels"))

    def ask_all(origin=None):
        for prefix, asn in queries:
            service.validate_route(prefix, asn if origin is None else origin)
            service.lookup_prefix(prefix)

    misses = _calls(ask_all, *watched)       # warm-up: every query a miss
    hits = _calls(ask_all, *watched)
    forged = _calls(lambda: [service.validate_route(prefix, 64666)
                             for prefix, _ in queries], *watched)
    n = len(queries)
    assert misses == [2 * n, n, 2 * n, 0]
    assert hits == [0, 0, 0, 0]
    assert forged == [n, n, n, 0]

    metrics = service.metrics
    cache_hits, cache_misses, _ = service.cache_stats()
    ok = int(sum(child.value for labels, child in
                 metrics.get("repro_api_requests_total").samples()
                 if labels["status"] == "ok"))
    sizes = metrics.get("repro_api_response_vrps").sample().count
    cache = metrics.get("repro_api_cache_total")
    assert (cache.value(result="hit"), cache.value(result="miss")) == (
        cache_hits, cache_misses)
    assert cache_hits + cache_misses == ok == sizes == 5 * n
    _RESULTS["request_path"] = {
        "queries_per_pass": 2 * n,
        "calls_per_pass": {
            phase: dict(zip(("prefix_parse", "outcomes_built",
                             "covering_queries", "labels"), counts))
            for phase, counts in (("miss", misses), ("hit", hits),
                                  ("forged_origin_miss", forged))
        },
        "ok_requests": ok,
        "response_vrps_count": sizes,
        "cache_hits_plus_misses": cache_hits + cache_misses,
    }
    _RESULTS["pins"] = {
        "hit_prefix_parses": hits[0],
        "hit_outcomes_built": hits[1],
        "validate_miss_parses": forged[0] / n,
        "validate_miss_covering_queries": forged[2] / n,
        "request_path_labels_calls": misses[3] + hits[3] + forged[3],
        "response_vrps_count_minus_ok": sizes - ok,
        "cache_lookups_minus_ok": cache_hits + cache_misses - ok,
    }


def test_write_artifact():
    assert "throughput" in _RESULTS and "campaign" in _RESULTS
    assert "internet" in _RESULTS and "request_path" in _RESULTS
    counts = _RESULTS.pop("pins")
    exact = {"validate_miss_parses": 1, "validate_miss_covering_queries": 1}
    write_artifact("BENCH_api.json", json.dumps({
        "experiment": "api",
        "pins": {
            "qps": {
                "measured": _RESULTS["throughput"]["qps"],
                "bound": MIN_QPS, "op": ">=",
            },
            "internet_qps": {
                "measured": _RESULTS["internet"]["qps"],
                "bound": MIN_QPS, "op": ">=",
            },
            "campaign_divergences": {
                "measured": _RESULTS["campaign"]["divergences"],
                "bound": 0, "op": "==",
            },
            **{name: {"measured": measured, "bound": exact.get(name, 0),
                      "op": "=="}
               for name, measured in counts.items()},
        },
        **_RESULTS,
    }, indent=2) + "\n")
