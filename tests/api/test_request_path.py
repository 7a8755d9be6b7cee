"""The lean request path against its predecessor, and its accounting.

One seeded sequence of requests — hits, misses, evictions, rate-limited
and unknown-serial answers, two epoch changes and queries that raise —
is replayed through ``QueryService`` and through the request path it
replaced (``reference_service.py``), each counting into its own
registry.  Every answer must be equal and every rendered registry
byte-identical, except for one deliberate fix: the old path booked a
cache miss for a query that raised before it had an answer.  (The
reference also carries the ``lookup_asn`` range check, a second fix,
so that both paths raise on the same queries.)
"""

import gc
import random
import weakref

import pytest

from repro.api import ApiConfig, QueryService, RateLimitConfig
from repro.api import service as service_module
from repro.modelgen import DeploymentConfig, build_deployment
from repro.repository import Fetcher
from repro.resources import AsnValueError, Prefix
from repro.rp import RelyingParty
from repro.rp.origin import validate
from repro.simtime import HOUR
from repro.telemetry import MetricsRegistry

from .reference_service import ReferenceQueryService

# Each raises, on both paths, before an answer exists.
MALFORMED = [("validate_route", ("10.0.0.0/33", 1)),
             ("validate_route", ("10.0.0.0/8", -1)),
             ("validate_route", ("garbage", 5)),
             ("lookup_prefix", ("10.0.0.0/x",)),
             ("lookup_asn", (-1,)),
             ("lookup_asn", (2**32,))]


@pytest.fixture
def world():
    return build_deployment(DeploymentConfig(
        seed=13, isps_per_rir=2, customers_per_isp=1,
    ))


@pytest.fixture
def rp(world):
    registry = MetricsRegistry()
    return RelyingParty(
        world.trust_anchors,
        Fetcher(world.registry, world.clock, metrics=registry), metrics=registry,
    )


def both(rp, **config):
    config = ApiConfig(**config)
    return (QueryService(rp, config=config, metrics=MetricsRegistry()),
            ReferenceQueryService(rp, config=config, metrics=MetricsRegistry()))


def call(service, endpoint, args, kwargs):
    try:
        response = getattr(service, endpoint)(*args, **kwargs)
    except ValueError as exc:
        return "raised", type(exc), str(exc)
    return (response.status, response.serial, response.content_hash,
            response.payload, response.cached)


def requests(rng, rp, count):
    """*count* seeded requests over *rp*'s current table."""
    vrps = sorted(rp.vrps)
    for _ in range(count):
        vrp = rng.choice(vrps)
        client = rng.choice(("a", "b", "noisy", "noisy", "noisy"))
        pick = rng.random()
        if pick < 0.35:
            prefix = rng.choice((vrp.prefix, str(vrp.prefix)))
            origin = rng.choice((int(vrp.asn), vrp.asn, 64666))
            yield "validate_route", (prefix, origin), {"client": client}
        elif pick < 0.6:
            prefix = vrp.prefix
            if prefix.length < 32 and rng.random() < 0.5:
                prefix = prefix.children()[rng.randint(0, 1)]
            yield "lookup_prefix", (rng.choice((prefix, str(prefix))),), {
                "client": client}
        elif pick < 0.8:
            yield "lookup_asn", (rng.choice((int(vrp.asn), 1, 64666)),), {
                "client": client}
        elif pick < 0.86:
            yield "history", (), {"client": client}
        elif pick < 0.94:
            yield "diff", (rng.randint(-1, 6),), {"client": client}
        else:
            endpoint, args = rng.choice(MALFORMED)
            yield endpoint, args, {"client": client}


def test_replay_matches_the_previous_path(world, rp, monkeypatch):
    rp.refresh()
    monkeypatch.setattr(service_module, "HISTORY_DEPTH", 3)
    new, old = both(
        rp, cache_capacity=48,
        rate_limit=RateLimitConfig(capacity=40, refill_per_second=0.5),
    )
    rng = random.Random(26)
    raised = 0
    for epoch in range(3):
        for endpoint, args, kwargs in requests(rng, rp, 700):
            answer = call(new, endpoint, args, kwargs)
            assert answer == call(old, endpoint, args, kwargs), (endpoint, args)
            raised += answer[0] == "raised"
            world.clock.advance(rng.choice((0, 0, 1)))
        # An epoch change behind both services' backs.
        ca = next(ca for ca in world.authorities() if ca.issued_roas)
        ca.revoke_roa(sorted(ca.issued_roas)[0])
        world.clock.advance(HOUR)
        rp.refresh()

    hits, misses, evictions = new.cache_stats()
    assert hits > 300 and evictions > 300
    assert old.cache_stats() == (hits, misses + raised, evictions)
    assert raised > 50
    text = new.metrics.render_text()
    assert 'status="rate-limited"' in text and 'status="unknown-serial"' in text
    miss_line = f'repro_api_cache_total{{result="miss"}} {misses}\n'
    assert miss_line in text
    assert old.metrics.render_text() == text.replace(
        miss_line, f'repro_api_cache_total{{result="miss"}} {misses + raised}\n')


def test_a_query_that_raises_counts_nothing(rp):
    """Was: ``cache_stats() == (0, 3, 0)`` and three booked misses, with no
    request and no answer size counted to match them."""
    rp.refresh()
    service = QueryService(rp, config=ApiConfig(rate_limit=None),
                           metrics=MetricsRegistry())
    for args in (("10.0.0.0/33", 1), ("10.0.0.0/8", -1), ("garbage", 5)):
        with pytest.raises(ValueError):
            service.validate_route(*args)
    # Was: ``ok ()``, cached, for an AS number no route can carry.
    for asn in (-1, 2**32):
        with pytest.raises(AsnValueError):
            service.lookup_asn(asn)
    assert service.cache_stats() == (0, 0, 0)
    text = service.metrics.render_text()
    assert 'repro_api_cache_total{result="miss"} 0' in text
    assert "repro_api_requests_total{" not in text
    assert "repro_api_response_vrps_count 0" in text
    # ... and the tallies agree once answers are served.
    vrp = next(iter(rp.vrps))
    for _ in range(3):
        service.validate_route(vrp.prefix, vrp.asn)
    assert service.cache_stats() == (2, 1, 0)
    requests_total = service.metrics.get("repro_api_requests_total")
    assert requests_total.value(kind="validate", status="ok") == 3
    assert service.metrics.get("repro_api_response_vrps").sample().count == 3


def test_one_tally_read_by_the_registry(rp):
    rp.refresh()
    registry = MetricsRegistry()
    first = QueryService(rp, config=ApiConfig(rate_limit=None), metrics=registry)
    second = QueryService(rp, config=ApiConfig(rate_limit=None), metrics=registry)
    vrp = next(iter(rp.vrps))
    for service in (first, first, second):
        service.lookup_prefix(vrp.prefix)
    assert first.cache_stats() == (1, 1, 0)
    assert second.cache_stats() == (0, 1, 0)
    cache = registry.get("repro_api_cache_total")
    assert (cache.value(result="hit"), cache.value(result="miss")) == (1, 2)
    # A reset zeroes the series, and counting brings them back.
    registry.reset()
    assert "repro_api_cache_total{" not in registry.render_text()
    first.lookup_prefix(vrp.prefix)
    text = registry.render_text()
    assert 'repro_api_cache_total{result="hit"} 1' in text
    assert 'result="miss"' not in text
    assert first.cache_stats() == (2, 1, 0)


def test_a_dropped_service_leaves_nothing_in_the_registry(world):
    """Was: each service pulled its cache's counts into the registry,
    which kept every dropped service's cache counts alive, summed in."""
    registry = MetricsRegistry()

    def serve():
        rp = RelyingParty(world.trust_anchors,
                          Fetcher(world.registry, world.clock, metrics=registry),
                          metrics=registry)
        rp.refresh()
        service = QueryService(rp, config=ApiConfig(rate_limit=None),
                               metrics=registry)
        service.lookup_prefix(next(iter(rp.vrps)).prefix)
        return weakref.ref(service)

    services = [serve() for _ in range(3)]
    gc.collect()
    assert [ref() for ref in services] == [None] * 3
    cache = registry.get("repro_api_cache_total")
    assert (cache.value(result="hit"), cache.value(result="miss")) == (0, 3)


def test_a_hit_parses_nothing_and_builds_no_outcome(rp, monkeypatch):
    rp.refresh()
    service = QueryService(rp, config=ApiConfig(rate_limit=None),
                           metrics=MetricsRegistry())
    vrp = next(iter(rp.vrps))
    text = str(vrp.prefix)
    service.validate_route(text, vrp.asn)
    service.lookup_prefix(text)
    parses, outcomes = [], []
    real_parse = Prefix.parse.__func__
    monkeypatch.setattr(Prefix, "parse", classmethod(
        lambda cls, t: (parses.append(t), real_parse(cls, t))[1]))
    monkeypatch.setattr(service_module, "validate", lambda *args: (
        outcomes.append(args), validate(*args))[1])
    assert service.validate_route(text, vrp.asn).cached
    assert service.lookup_prefix(text).cached
    assert parses == [] and outcomes == []
    # A miss parses once and classifies once.
    service.validate_route(text, 64666)
    assert parses == [text] and len(outcomes) == 1
