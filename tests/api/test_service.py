"""QueryService: consistency with the backing RP, epochs, and limits.

The load-bearing property is the consistency contract: every answer the
service emits must equal a direct :func:`repro.rp.origin.validate` (or
``VrpSet`` lookup) against the relying party's *live* VRP set, even when
the RP is refreshed behind the service's back.
"""

import random

import pytest

from repro.api import (
    ApiConfig,
    QueryService,
    QueryStatus,
    RateLimitConfig,
)
from repro.api import service as service_module
from repro.modelgen import DeploymentConfig, build_deployment
from repro.repository import Fetcher
from repro.resources import Prefix
from repro.rp import RelyingParty, VrpSet
from repro.rp.origin import validate
from repro.simtime import HOUR
from repro.telemetry import MetricsRegistry


@pytest.fixture
def world():
    return build_deployment(DeploymentConfig(
        seed=13, isps_per_rir=2, customers_per_isp=1,
    ))


@pytest.fixture
def rp(world):
    registry = MetricsRegistry()
    fetcher = Fetcher(world.registry, world.clock, metrics=registry)
    return RelyingParty(world.trust_anchors, fetcher,
                        metrics=registry)


def make_service(rp, **config):
    return QueryService(rp, config=ApiConfig(**config),
                        metrics=MetricsRegistry())


def whack_a_roa(world):
    ca = next(ca for ca in world.authorities() if ca.issued_roas)
    ca.revoke_roa(next(iter(ca.issued_roas)))


class TestEpochs:
    def test_serial_bumps_only_on_content_change(self, world, rp):
        service = make_service(rp)
        assert service.serial == 0
        service.refresh()
        assert service.serial == 1
        world.clock.advance(HOUR)
        service.refresh()              # nothing changed upstream
        assert service.serial == 1
        whack_a_roa(world)
        world.clock.advance(HOUR)
        service.refresh()
        assert service.serial == 2

    def test_content_hash_tracks_vrp_set(self, rp):
        service = make_service(rp)
        service.refresh()
        assert service.content_hash == rp.vrps.content_hash()

    def test_history_records_deltas(self, world, rp):
        service = make_service(rp)
        service.refresh()
        before = set(rp.vrps)
        whack_a_roa(world)
        world.clock.advance(HOUR)
        service.refresh()
        entries = service.history().payload
        assert [e.serial for e in entries] == [0, 1, 2]
        assert set(entries[1].added) == before
        assert entries[2].removed
        assert set(entries[2].removed) == before - set(rp.vrps)

    def test_history_ring_is_bounded(self, world, rp, monkeypatch):
        monkeypatch.setattr(service_module, "HISTORY_DEPTH", 3)
        service = make_service(rp)
        service.refresh()
        for _ in range(4):
            whack_a_roa(world)
            world.clock.advance(HOUR)
            service.refresh()
        entries = service.history().payload
        assert len(entries) == 3
        assert [e.serial for e in entries] == [3, 4, 5]


class TestConsistency:
    def test_answers_match_direct_validate(self, rp):
        service = make_service(rp)
        service.refresh()
        for vrp in rp.vrps:
            served = service.validate_route(vrp.prefix, vrp.asn).payload
            direct = validate(vrp.prefix, vrp.asn, rp.vrps)
            assert served.state is direct.state
            assert served.covering == direct.covering

    def test_out_of_band_refresh_is_visible_immediately(self, world, rp):
        # The RP is refreshed directly, not through the service: the very
        # next query must already be answered against the new set.
        service = make_service(rp)
        service.refresh()
        victim = next(iter(rp.vrps))
        assert service.validate_route(
            victim.prefix, victim.asn).payload.state.value == "valid"
        whack_a_roa(world)
        world.clock.advance(HOUR)
        rp.refresh()                   # behind the service's back
        response = service.validate_route(victim.prefix, victim.asn)
        direct = validate(victim.prefix, victim.asn, rp.vrps)
        assert response.payload.state is direct.state
        assert response.serial == 2

    def test_cache_hit_returns_equal_payload(self, rp):
        service = make_service(rp)
        service.refresh()
        vrp = next(iter(rp.vrps))
        first = service.validate_route(vrp.prefix, vrp.asn)
        second = service.validate_route(vrp.prefix, vrp.asn)
        assert not first.cached and second.cached
        assert first.payload == second.payload

    def test_changed_epoch_misses_the_cache(self, world, rp):
        service = make_service(rp)
        service.refresh()
        vrp = next(iter(rp.vrps))
        service.validate_route(vrp.prefix, vrp.asn)
        whack_a_roa(world)
        world.clock.advance(HOUR)
        service.refresh()
        after = service.validate_route(vrp.prefix, vrp.asn)
        assert not after.cached        # key rotated with the content hash
        assert after.payload.state is validate(
            vrp.prefix, vrp.asn, rp.vrps).state

    def test_lookup_prefix_and_asn(self, rp):
        service = make_service(rp)
        service.refresh()
        vrp = next(iter(rp.vrps))
        by_prefix = service.lookup_prefix(str(vrp.prefix)).payload
        assert vrp in by_prefix
        assert set(by_prefix) == {
            v for v in rp.vrps if v.covers(vrp.prefix)
        }
        by_asn = service.lookup_asn(int(vrp.asn)).payload
        assert vrp in by_asn
        assert set(by_asn) == {v for v in rp.vrps if v.asn == vrp.asn}


class TestDiff:
    def test_diff_reports_the_whack(self, world, rp):
        service = make_service(rp)
        service.refresh()
        before = set(rp.vrps)
        whack_a_roa(world)
        world.clock.advance(HOUR)
        service.refresh()
        diff = service.diff(1).payload
        assert diff.from_serial == 1 and diff.to_serial == 2
        assert set(diff.removed) == before - set(rp.vrps)
        assert diff.added == ()

    def test_empty_diff_at_current_serial(self, rp):
        service = make_service(rp)
        service.refresh()
        diff = service.diff(1).payload
        assert diff.empty

    def test_unknown_serials_rejected(self, world, rp, monkeypatch):
        monkeypatch.setattr(service_module, "HISTORY_DEPTH", 2)
        service = make_service(rp)
        service.refresh()
        assert service.diff(7).status == QueryStatus.UNKNOWN_SERIAL
        for _ in range(3):
            whack_a_roa(world)
            world.clock.advance(HOUR)
            service.refresh()
        # Ring now holds serials [3, 4]; epoch 1 has aged out.
        assert service.diff(1).status == QueryStatus.UNKNOWN_SERIAL
        assert service.diff(3).status == QueryStatus.OK


class TestRateLimiting:
    def test_per_client_isolation(self, rp):
        service = make_service(
            rp, rate_limit=RateLimitConfig(capacity=3, refill_per_second=0),
        )
        service.refresh()
        noisy = [service.lookup_asn(1, client="noisy").status
                 for _ in range(5)]
        assert noisy == ["ok", "ok", "ok", "rate-limited", "rate-limited"]
        assert service.lookup_asn(1, client="quiet").status == "ok"

    def test_tokens_refill_on_the_simulated_clock(self, world, rp):
        service = make_service(
            rp, rate_limit=RateLimitConfig(capacity=2, refill_per_second=1),
        )
        service.refresh()
        assert service.lookup_asn(1, client="c").ok
        assert service.lookup_asn(1, client="c").ok
        assert not service.lookup_asn(1, client="c").ok
        world.clock.advance(2)
        assert service.lookup_asn(1, client="c").ok

    def test_disabled_when_config_is_none(self, rp):
        service = make_service(rp, rate_limit=None)
        service.refresh()
        assert all(service.lookup_asn(1, client="c").ok for _ in range(500))


class TestConfig:
    def test_sharding_is_gone(self):
        with pytest.raises(TypeError):
            ApiConfig(shards=4)

    def test_cache_holds_exactly_its_capacity(self, rp):
        service = make_service(rp, cache_capacity=5, rate_limit=None)
        service.refresh()
        for asn in range(1, 6):
            service.lookup_asn(asn)
        assert all(service.lookup_asn(asn).cached for asn in range(1, 6))
        assert service.cache_stats() == (5, 5, 0)
        service.lookup_asn(6)          # N+1: the oldest answer goes
        assert service.cache_stats() == (5, 6, 1)
        assert not service.lookup_asn(1).cached
        assert service.lookup_asn(6).cached


class TestTelemetry:
    def test_request_counter_by_kind_and_status(self, rp):
        service = make_service(
            rp, rate_limit=RateLimitConfig(capacity=2, refill_per_second=0),
        )
        service.refresh()
        vrp = next(iter(rp.vrps))
        statuses = [service.validate_route(vrp.prefix, vrp.asn).status
                    for _ in range(3)]
        assert statuses == ["ok", "ok", "rate-limited"]
        assert service.diff(99, client="monitor").status == "unknown-serial"
        counter = service.metrics.get("repro_api_requests_total")
        assert counter.labelnames == ("kind", "status")
        assert counter.value(kind="validate", status="ok") == 2
        assert counter.value(kind="validate", status="rate-limited") == 1
        assert counter.value(kind="diff", status="unknown-serial") == 1

    @staticmethod
    def two_misses_and_a_hit(rp):
        service = make_service(rp, rate_limit=None)
        service.refresh()
        vrp = next(iter(rp.vrps))
        service.lookup_prefix(vrp.prefix)           # miss
        service.lookup_prefix(vrp.prefix)           # hit
        service.lookup_asn(vrp.asn)                 # miss
        return service

    def test_cache_counter_and_histogram(self, rp):
        service = self.two_misses_and_a_hit(rp)
        cache = service.metrics.get("repro_api_cache_total")
        assert cache.labelnames == ("result",)
        assert cache.value(result="hit") == 1
        assert cache.value(result="miss") == 2
        histogram = service.metrics.get("repro_api_response_vrps")
        assert histogram.labelnames == ()
        assert histogram.sample().count == 3

    def test_cache_stats_totals(self, rp):
        assert self.two_misses_and_a_hit(rp).cache_stats() == (1, 2, 0)


class TestCoveringAtLoad:
    def test_covering_matches_brute_force_under_query_storm(self):
        # VrpSet.covering is the query plane's hot path; check the index
        # against the O(n) definition across a large randomized set.
        rng = random.Random(99)
        from repro.rp import VRP

        vrps = VrpSet()
        for _ in range(400):
            length = rng.randint(8, 24)
            base = rng.getrandbits(length) << (32 - length)
            octets = ".".join(str((base >> s) & 0xFF)
                              for s in (24, 16, 8, 0))
            max_length = rng.randint(length, min(length + 8, 32))
            vrps.add(VRP.parse(f"{octets}/{length}-{max_length}",
                               rng.randint(1, 50)))
        probes = []
        for vrp in list(vrps)[:100]:
            probes.append(vrp.prefix)
            if vrp.prefix.length < 30:
                probes.append(Prefix(vrp.prefix.afi, vrp.prefix.network,
                                     vrp.prefix.length + 2))
        for prefix in probes:
            indexed = sorted(vrps.covering(prefix))
            brute = sorted(v for v in vrps if v.covers(prefix))
            assert indexed == brute
