"""What one query costs in calls: a miss its probe, a hit almost nothing.

One 2,000-query block over the seed-13 world of ``test_request_path.py``,
wide and then hot: each VRP's prefix validated against an origin no ROA
names and a more specific of it looked up (1,000 misses), then the same
1,000 queries again (hits).  Every call the block makes, Python or C, is
charged to the innermost stage running when it is made — ``parse``
(``Prefix.parse``), ``covering`` (``VrpSet.covering``), ``validate``
(``repro.rp.origin.validate``), else ``request`` (the endpoint,
``QueryService._serve`` and its cache and counts) — and counted per
request.  Each count is pinned as a share of the calls the reference
prefix parser (``tests/resources/reference_prefix.py``) makes per query
text, counted the same way in the same process — a share, not a count,
so an interpreter that counts calls its own way moves both sides — at
~10 % above its measured value.
"""

import gc
import sys
from collections import Counter
from functools import cache

from repro.api import ApiConfig, QueryService
from repro.modelgen import DeploymentConfig, build_deployment
from repro.repository import Fetcher
from repro.resources import Prefix
from repro.rp import RelyingParty
from repro.rp import origin
from repro.rp.vrp import VrpSet
from repro.telemetry import MetricsRegistry

from ..resources import reference_prefix

STAGES = {
    Prefix.parse.__func__.__code__: "parse",
    VrpSet.covering.__code__: "covering",
    origin.validate.__code__: "validate",
}

# Origins from here on are named by no ROA of the world.
FREE_ASN = 4_200_000_000

# Measured with CPython 3.11, where the reference parser makes 10 calls
# per query text of this world.  Per request, a validate_route miss makes
# 10 calls on the request path (one of them the block's own list
# append), 7 in validate, 4.3 in covering and 17 in the parse; a
# lookup_prefix miss 11, 5 and 17; a hit 6, and nothing else.  Before
# the miss path shed its per-request layers and objects they were 15,
# 10, 8.3 and 17; 16, 9 and 17; and 11.  The pins are the shares plus
# ~10 %.
REFERENCE_PARSE = 10.0
PINNED = {
    "validate_route miss": {"request": 10, "validate": 7, "covering": 4.3,
                            "parse": 17},
    "lookup_prefix miss": {"request": 11, "covering": 5, "parse": 17},
    "hit": {"request": 6},
}


def calls_by_stage(work) -> Counter:
    """The calls, Python and C, *work* makes, by the innermost of
    :data:`STAGES` running when each is made (``request``: under none).
    The collector is off meanwhile, so no collection is counted."""
    counts = Counter()
    innermost = ["request"]

    def profile(frame, event, _arg):
        if event == "call":
            stage = STAGES.get(frame.f_code)
            if stage is not None:
                innermost.append(stage)
            counts[innermost[-1]] += 1
        elif event == "c_call":
            counts[innermost[-1]] += 1
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
    counts["request"] -= 1  # the setprofile(None) call itself
    return counts


@cache
def block_calls() -> dict[str, tuple[Counter, int]]:
    """The calls of each part of the block, and its number of requests."""
    world = build_deployment(DeploymentConfig(
        seed=13, isps_per_rir=2, customers_per_isp=1,
    ))
    registry = MetricsRegistry()
    rp = RelyingParty(
        world.trust_anchors,
        Fetcher(world.registry, world.clock, metrics=registry), metrics=registry,
    )
    rp.refresh()
    service = QueryService(
        rp, config=ApiConfig(cache_capacity=1000, rate_limit=None),
        metrics=MetricsRegistry(),
    )
    vrps = sorted(rp.vrps)
    routes = [(str(vrp.prefix), FREE_ASN + i)
              for i in range(500 // len(vrps) + 1) for vrp in vrps][:500]
    lookups = sorted({str(sub) for vrp in vrps
                      for sub in vrp.prefix.subprefixes(vrp.prefix.length + 5)
                      })[:500]
    # A full cache, so that every miss of the block evicts an entry.
    for asn in range(1000):
        service.lookup_asn(asn)
    answers = []

    def validate_all():
        for route in routes:
            answers.append(service.validate_route(*route))

    def lookup_all():
        for text in lookups:
            answers.append(service.lookup_prefix(text))

    def again():
        validate_all()
        lookup_all()

    parts = {
        "validate_route miss": (calls_by_stage(validate_all), len(routes)),
        "lookup_prefix miss": (calls_by_stage(lookup_all), len(lookups)),
        "hit": (calls_by_stage(again), len(routes) + len(lookups)),
        "reference parse": (calls_by_stage(lambda: [
            reference_prefix.parse_prefix(text) for text, _ in routes
        ]), len(routes)),
    }
    assert [answer.cached for answer in answers] == [False] * 1000 + [True] * 1000
    assert service.cache_stats() == (1000, 2000, 1000)
    return parts


def per_request(part: str) -> dict[str, float]:
    counts, requests = block_calls()[part]
    return {stage: n / requests for stage, n in counts.items() if n}


def pinned_at(part: str) -> dict[str, float]:
    reference = sum(per_request("reference parse").values())
    return {stage: 1.1 * calls / REFERENCE_PARSE * reference
            for stage, calls in PINNED[part].items()}


def within_pins(part: str) -> bool:
    measured, pins = per_request(part), pinned_at(part)
    return set(measured) <= set(pins) and all(
        measured[stage] <= pins[stage] for stage in measured)


def test_a_validate_route_miss_pays_its_pinned_calls():
    part = "validate_route miss"
    assert within_pins(part), (per_request(part), pinned_at(part))


def test_a_lookup_prefix_miss_pays_its_pinned_calls():
    part = "lookup_prefix miss"
    assert within_pins(part), (per_request(part), pinned_at(part))


def test_a_hit_pays_its_pinned_calls_and_nothing_else():
    part = "hit"
    assert within_pins(part), (per_request(part), pinned_at(part))
