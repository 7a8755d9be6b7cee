"""Unit tests for the deadline-aware fetch scheduler.

The defense half of the Stalloris reproduction: priority ordering
(stalest-first), per-authority time budgets with recovery
probes, and the relying-party wiring — including the contract that an
unscheduled relying party (the default) fetches in plain URI order.
"""

import pytest

from repro.modelgen import DeploymentConfig, build_deployment
from repro.repository import (
    PERSISTENT,
    FaultInjector,
    FaultKind,
    FetchResult,
    FetchStatus,
    Fetcher,
    LocalCache,
)
from repro.repository.scheduler import AUTHORITY_BUDGET, FetchScheduler
from repro.rp import RelyingParty
from repro.telemetry import MetricsRegistry


def make_cache(*specs):
    """specs: (uri, last_success) pairs; -1 = attempted, never succeeded."""
    cache = LocalCache(metrics=MetricsRegistry())
    for uri, success in specs:
        if success < 0:
            cache.update(FetchResult(uri, FetchStatus.TIMEOUT, fetched_at=0))
        else:
            cache.update(FetchResult(uri, FetchStatus.OK, {"a.roa": b"x"},
                                     fetched_at=success))
    return cache


def make_scheduler():
    return FetchScheduler(metrics=MetricsRegistry())


A1 = "rsync://alpha.example/repo/"
A2 = "rsync://alpha.example/repo/sub/"
B1 = "rsync://beta.example/repo/"


class TestSchedulerConfig:
    def test_rejects_bad_knobs(self):
        # The authority budget is a constant, one attempt deadline; no
        # caller can set it, let alone set it wrong.
        assert AUTHORITY_BUDGET == 600
        with pytest.raises(TypeError):
            FetchScheduler(authority_budget=0)

    def test_weight_defaults_to_one(self):
        # Every authority weighs the same: equally stale points on
        # different hosts sort by URI alone.
        scheduler = make_scheduler()
        cache = make_cache((B1, 100), (A1, 100))
        assert scheduler.order({A1, B1}, cache, now=200) == [A1, B1]
        assert not hasattr(scheduler, "weight_for")


class TestOrdering:
    def test_never_fetched_points_come_first(self):
        scheduler = make_scheduler()
        cache = make_cache((A1, 100), (B1, -1))
        new = "rsync://gamma.example/repo/"  # not in the cache at all
        ordered = scheduler.order({A1, B1, new}, cache, now=200)
        assert ordered.index(B1) < ordered.index(A1)
        assert ordered.index(new) < ordered.index(A1)

    def test_stalest_first(self):
        scheduler = make_scheduler()
        cache = make_cache((A1, 50), (B1, 150))
        assert scheduler.order({A1, B1}, cache, now=200) == [A1, B1]

    def test_cheap_expected_cost_breaks_ties(self):
        scheduler = make_scheduler()
        cache = make_cache((A1, 100), (B1, 100))
        scheduler.record(A1, 600)  # past latency makes A1 expensive
        assert scheduler.order({A1, B1}, cache, now=200) == [B1, A1]

    def test_uri_breaks_remaining_ties(self):
        scheduler = make_scheduler()
        cache = make_cache((A2, 100), (A1, 100), (B1, 100))
        assert scheduler.order({A1, A2, B1}, cache, now=200) == [A1, A2, B1]


class TestAdmission:
    def test_healthy_fetches_never_deferred(self):
        scheduler = make_scheduler()
        for uri in (A1, A2, B1):
            assert scheduler.admit(uri)
            scheduler.record(uri, 0)  # healthy: zero simulated cost

    def test_over_budget_host_gets_probes_then_defers(self):
        scheduler = make_scheduler()
        assert scheduler.admit(A1)
        scheduler.record(A1, 600)  # one stalled deadline: budget consumed
        assert scheduler.admit(A2)      # the recovery probe
        assert not scheduler.admit(A2)  # probes exhausted: deferred
        assert scheduler.admit(B1)      # other authorities unaffected

    def test_budget_boundary_is_inclusive(self):
        # spent == budget is already over: the next admission is the
        # recovery probe, not a scheduled fetch — otherwise a zero-EWMA
        # point slips in a third deadline burn per cycle.
        scheduler = make_scheduler()
        assert scheduler.admit(A1)
        scheduler.record(A1, 600)
        assert scheduler.admit(A2)
        admitted = scheduler.metrics.get("repro_sched_admitted_total")
        assert admitted.value(kind="probe") == 1
        assert admitted.value(kind="scheduled") == 1

    def test_predicted_cost_counts_against_budget(self):
        scheduler = make_scheduler()
        scheduler.record(A1, 600)  # EWMA now predicts a 600 s fetch
        scheduler.begin_cycle()    # spend resets, history persists
        # 0 spent + 600 predicted >= 600: only the probe gets through.
        assert scheduler.admit(A1)
        assert not scheduler.admit(A1)
        admitted = scheduler.metrics.get("repro_sched_admitted_total")
        assert admitted.value(kind="probe") == 1
        assert admitted.value(kind="scheduled") == 0

    def test_authority_point_cap(self):
        # Time is the only budget: an authority's healthy points are never
        # capped by count, however many it publishes.
        scheduler = make_scheduler()
        for index in range(64):
            uri = f"rsync://alpha.example/repo/{index}/"
            assert scheduler.admit(uri)
            scheduler.record(uri, 0)

    def test_begin_cycle_resets_spend_not_history(self):
        scheduler = make_scheduler()
        scheduler.record(A1, 600)
        assert scheduler._spent == {"alpha.example": 600}
        scheduler.begin_cycle()
        assert scheduler._spent == {}
        assert scheduler._ewma[A1] == 600.0

    def test_ewma_blends_observations(self):
        scheduler = make_scheduler()
        scheduler.record(A1, 600)
        assert scheduler._ewma[A1] == 600.0  # first observation
        scheduler.record(A1, 0)  # the host recovered
        assert scheduler._ewma[A1] == 300.0
        scheduler.record(A1, 0)
        assert scheduler._ewma[A1] == 150.0

    def test_deferral_metrics_by_reason(self):
        scheduler = make_scheduler()
        scheduler.admit(A1)
        scheduler.record(A1, 600)
        scheduler.admit(A2)   # the recovery probe
        scheduler.admit(A2)   # deferred: authority-budget
        deferred = scheduler.metrics.get("repro_sched_deferred_total")
        assert deferred.value(reason="authority-budget") == 1
        admitted = scheduler.metrics.get("repro_sched_admitted_total")
        assert admitted.value(kind="scheduled") == 1


def amplified_world(points=4):
    return build_deployment(DeploymentConfig(
        seed=1, isps_per_rir=2, customers_per_isp=1,
        roas_per_isp=1, roas_per_customer=1,
        amplification_points=points,
    ))


class TestRelyingPartyWiring:
    def make_rp(self, world, *, faults=None, **kw):
        fetcher = Fetcher(world.registry, world.clock, faults=faults,
                          attempt_timeout=600, metrics=MetricsRegistry())
        return RelyingParty(world.trust_anchors, fetcher,
                            metrics=fetcher.metrics, **kw)

    def test_default_has_no_scheduler_and_no_deferrals(self):
        world = amplified_world()
        rp = self.make_rp(world)
        report = rp.refresh()
        assert rp.scheduler is None
        assert report.deferred == []

    def test_off_path_output_identical_to_unscheduled(self):
        # scheduled=False is the default, byte for byte: plain URI order,
        # every fetch admitted.
        config = DeploymentConfig(seed=1, isps_per_rir=2, customers_per_isp=1,
                                  amplification_points=4)
        w1, w2 = build_deployment(config), build_deployment(config)
        rp1 = self.make_rp(w1)
        rp2 = self.make_rp(w2, scheduled=False)
        r1, r2 = rp1.refresh(), rp2.refresh()
        assert rp1.vrps.as_frozenset() == rp2.vrps.as_frozenset()
        assert rp1.cache.digests(0) == rp2.cache.digests(0)
        assert [f.uri for f in r1.fetches] == [f.uri for f in r2.fetches]
        assert r1.deferred == r2.deferred == []

    def test_scheduler_defers_amplified_subtree_and_reports_it(self):
        world = amplified_world(points=6)
        faults = FaultInjector(seed=1)
        rp = self.make_rp(world, faults=faults, scheduled=True)
        rp.refresh()  # healthy warm-up
        faults.schedule(
            FaultKind.AMPLIFY,
            f"rsync://{world.amplifier_host}/repo/amp",
            count=PERSISTENT, delay_seconds=0,
        )
        world.clock.advance(900)
        start = world.clock.now
        report = rp.refresh()
        # At most first contact + one probe on the slow host per cycle.
        assert world.clock.now - start <= 2 * 600
        assert len(report.deferred) >= 4
        assert all(world.amplifier_host in uri for uri in report.deferred)
        reasons = dict(report.degradation.degraded_points)
        assert any(r == "budget-deferred" for r in reasons.values())

    def test_scheduled_rp_owns_its_scheduler(self):
        world = amplified_world()
        rp = self.make_rp(world, scheduled=True)
        scheduler = rp.scheduler
        assert isinstance(scheduler, FetchScheduler)
        assert scheduler.metrics is rp.metrics
        rp.refresh()
        # Healthy world: every fetch recorded, zero simulated cost.
        assert scheduler._spent
        assert all(cost == 0 for cost in scheduler._spent.values())
