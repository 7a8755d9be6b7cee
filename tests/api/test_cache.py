"""The bounded LRU response cache: eviction order, stats, key rotation.

The service probes, fills and trims its ``ResponseCache`` inline on the
request path, so the policy is driven here through ``QueryService``:
every distinct AS number is a distinct cache key.
"""

import pytest

from repro import Fetcher, RelyingParty, build_figure2
from repro.api import ApiConfig, CacheStats, QueryService, ResponseCache
from repro.telemetry import MetricsRegistry


@pytest.fixture
def world():
    return build_figure2()


@pytest.fixture
def rp(world):
    rp = RelyingParty(world.trust_anchors, Fetcher(world.registry, world.clock))
    rp.refresh()
    return rp


def service_of(rp, capacity):
    return QueryService(
        rp, config=ApiConfig(cache_capacity=capacity, rate_limit=None),
        metrics=MetricsRegistry(),
    )


class TestResponseCache:
    def test_rejects_zero_capacity(self, rp):
        with pytest.raises(ValueError):
            ResponseCache(0)
        with pytest.raises(ValueError):
            service_of(rp, 0)

    def test_miss_then_hit(self, rp):
        service = service_of(rp, 4)
        assert not service.lookup_asn(1).cached
        assert service.lookup_asn(1).cached
        assert service.cache_stats() == (1, 1, 0)

    def test_evicts_least_recently_used(self, rp):
        service = service_of(rp, 2)
        service.lookup_asn(1)
        service.lookup_asn(2)
        assert service.lookup_asn(1).cached  # refresh 1; 2 is now the LRU
        service.lookup_asn(3)
        assert service.cache_stats() == (1, 3, 1)
        assert service.lookup_asn(1).cached
        assert service.lookup_asn(3).cached
        assert not service.lookup_asn(2).cached  # evicted

    def test_put_refreshes_existing_key(self, rp):
        service = service_of(rp, 2)
        service.lookup_asn(1)
        service.lookup_asn(2)
        service.lookup_asn(1)             # a hit: no new entry, no eviction
        assert len(service._cache) == 2
        assert service.cache_stats() == (1, 2, 0)
        assert list(service._cache) == [
            (service.content_hash, "lookup_asn", "AS2"),
            (service.content_hash, "lookup_asn", "AS1"),
        ]

    def test_capacity_is_a_hard_bound_under_unique_keys(self, rp):
        # The Stalloris lesson, serving side: an attacker enumerating
        # unique queries cannot grow memory.
        service = service_of(rp, 8)
        for asn in range(1000):
            service.lookup_asn(asn)
        assert len(service._cache) == 8
        assert service.cache_stats() == (0, 1000, 992)

    def test_content_hash_keying_rotates_answers(self, world, rp):
        # The invalidation story: same query under a new content hash is
        # a distinct key, so a changed VRP set can never serve stale.
        service = service_of(rp, 4)
        before = service.lookup_asn(64500)
        world.continental.issue_roa(64500, "63.174.24.0/24")
        rp.refresh()
        after = service.lookup_asn(64500)
        assert not after.cached and after.content_hash != before.content_hash
        assert len(after.payload) == len(before.payload) + 1

    def test_stats_hit_rate(self, rp):
        service = service_of(rp, 4)
        for _ in range(4):
            service.lookup_asn(7)
        stats = service.cache_stats()
        assert stats == CacheStats(hits=3, misses=1, evictions=0)
        assert stats.hits / (stats.hits + stats.misses) == 0.75
