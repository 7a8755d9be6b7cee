"""The refresh worklist: every reached CA's point is judged exactly once.

A refresh walks the certificate tree level by level — fetch a level's
points, judge each CA's point once from what the cache then serves,
enqueue the children it accepts — so its cost does not depend on how
deep an authority chooses to delegate.  ``PathValidator.run`` is the
same walk over a fixed snapshot and serves here as the cold oracle.
"""

import pytest

from repro.modelgen import build_deployment, build_figure2, resolve_scale
from repro.repository import (
    FaultInjector,
    FaultKind,
    Fetcher,
    HostLocator,
)
from repro.resources import ResourceSet
from repro.rp import PathValidator, RelyingParty
from repro.rpki import MANIFEST_FILE
from repro.simtime import HOUR
from repro.telemetry import MetricsRegistry

from ..helpers import all_files, build_deep_hierarchy

CONTINENTAL = "rsync://continental.example/repo/"
ETB = "rsync://etb.example/repo/"
SMALLBIZ = "rsync://smallbiz.example/repo/"


def make_rp(world, *, faults=None, **kwargs):
    registry = MetricsRegistry()
    fetcher = Fetcher(world.registry, world.clock, faults=faults,
                      metrics=registry)
    return RelyingParty(world.trust_anchors, fetcher, metrics=registry,
                        **kwargs)


def rsa_verifies() -> float:
    from repro.telemetry import default_registry

    counter = default_registry().get("repro_crypto_verify_total")
    return (counter.value(outcome="accepted")
            + counter.value(outcome="rejected"))


def walk_signature(run):
    """What two walks must agree on, order included."""
    return (
        run.vrps.content_hash(),
        list(run.issues),
        [cert.hash_hex for cert in run.validated_cas],
    )


def judged_keys(rp):
    """Spy on the validator: the CA key of every point it cold-validates."""
    keys = []
    inner = rp.validator._validate_point

    def spy(ca_cert, *args, **kwargs):
        keys.append(ca_cert.subject_key_id)
        return inner(ca_cert, *args, **kwargs)

    rp.validator._validate_point = spy
    return keys


@pytest.fixture(scope="module")
def large_world():
    world = build_deployment(resolve_scale("large"))
    world.clock.advance(HOUR)
    return world


class TestCostIndependentOfDepth:
    def test_rerefresh_costs_what_the_cold_refresh_cost(self, large_world):
        rp = make_rp(large_world)
        keys = judged_keys(rp)
        before = rsa_verifies()
        cold = rp.refresh()
        cold_verifies = rsa_verifies() - before
        cold_keys = list(keys)
        keys.clear()
        rp.incremental_state.clear()  # a cold re-refresh, cache full
        again = rp.refresh()
        assert cold.rounds == again.rounds == 6   # depth 5 below the anchors
        assert cold_verifies > 0
        assert rsa_verifies() - before == 2 * cold_verifies
        # One judgment per CA per refresh, no matter how many levels the
        # walk took to reach it.
        every_ca = [cert.subject_key_id for cert in cold.run.validated_cas]
        assert sorted(cold_keys) == sorted(keys) == sorted(every_ca)
        assert len(set(every_ca)) == len(every_ca)

    def test_one_walk_is_one_run(self, large_world):
        rp = make_rp(large_world)
        rp.refresh()
        rp.refresh()
        runs = rp.metrics.get("repro_validation_runs_total")
        assert runs.value() == 2


class TestModesAgreeWithTheOracle:
    @pytest.mark.parametrize("name", ["figure2", "large"])
    def test_fresh_persistent_and_cold_oracle_agree(self, name, large_world):
        """A refresh over a full cache, warm and after ``clear()``, walks
        what a new validator walks over the same snapshot."""
        world = build_figure2() if name == "figure2" else large_world
        now = world.clock.now
        rp = make_rp(world)
        rp.refresh()
        warm = walk_signature(rp.refresh().run)
        rp.incremental_state.clear()
        cleared = walk_signature(rp.refresh().run)
        oracle = PathValidator(world.trust_anchors, metrics=MetricsRegistry())
        cold = walk_signature(oracle.run(all_files(rp.cache, now), now))
        assert warm == cleared == cold
        assert cold[1] == []


class TestBudgetAndDeferral:
    def warm(self, world, **kwargs):
        """A relying party whose cache already holds the whole tree."""
        faults = FaultInjector()
        rp = make_rp(world, faults=faults, **kwargs)
        assert len(rp.refresh().vrps) == 10
        world.clock.advance(HOUR)
        return rp, faults

    def test_budget_trip_mid_level_serves_the_cached_subtree(self):
        self.check_budget_trip(scheduled=False)

    def test_budget_trip_mid_level_serves_the_cached_subtree_scheduled(self):
        """The fetch budget and the scheduler together: the round, not the
        scheduler, skips once the budget is spent."""
        self.check_budget_trip(scheduled=True)

    def check_budget_trip(self, scheduled):
        world, _smallbiz = build_deep_hierarchy()
        rp, faults = self.warm(world, fetch_budget=10, scheduled=scheduled)
        faults.schedule(FaultKind.DELAY, CONTINENTAL, delay_seconds=60)
        report = rp.refresh()
        assert set(report.deferred).isdisjoint(report.skipped)
        # Continental's slow fetch ate the budget mid-level: ETB (same
        # level, later in sort order) and SmallBiz (one level down) were
        # never fetched, yet both subtrees were walked from the cache.
        assert report.skipped == [ETB, SMALLBIZ]
        assert [f.uri for f in report.fetches][-1] == CONTINENTAL
        assert report.rounds == 3
        assert len(report.vrps) == 10
        assert len(report.run.validated_cas) == 5

    def test_deferred_point_still_reveals_its_cached_children(self):
        world, _smallbiz = build_deep_hierarchy()
        rp, _faults = self.warm(world, scheduled=True)
        admit = rp.scheduler.admit
        rp.scheduler.admit = lambda uri: uri != CONTINENTAL and admit(uri)
        report = rp.refresh()
        assert report.deferred == [CONTINENTAL]
        # SmallBiz is known only through Continental's *cached* point —
        # and is still discovered, fetched and validated.
        assert SMALLBIZ in [f.uri for f in report.fetches]
        assert CONTINENTAL not in [f.uri for f in report.fetches]
        assert len(report.vrps) == 10


class TestLoopGuardAndDepthCap:
    def test_self_recertification_is_walked_once(self):
        world = build_figure2()
        sprint = world.sprint
        # Sprint certifies its own key again, into its own point.
        sprint._issue_rc(
            subject="Sprint again", subject_public_key=sprint.key.public,
            ip_resources=sprint.resources, as_resources=None,
            sia=sprint.sia, validity=365 * 24 * HOUR,
        )
        rp = make_rp(world)
        keys = judged_keys(rp)
        report = rp.refresh()
        assert keys.count(sprint.key_id) == 1
        # The second certificate is listed, its point is not re-judged.
        listed = [c.subject for c in report.run.validated_cas]
        assert listed.count("Sprint") == 1 and "Sprint again" in listed
        assert report.run.errors() == []
        assert len(report.vrps) == 8
        now = world.clock.now
        oracle = PathValidator(world.trust_anchors, metrics=MetricsRegistry())
        assert walk_signature(report.run) == walk_signature(
            oracle.run(all_files(rp.cache, now), now)
        )

    def test_depth_exceeded_reported_once(self):
        world = build_figure2()
        server = world.registry.create_server(
            "deep.example", HostLocator.parse("63.174.20.10", 64800)
        )
        ca = world.continental          # depth 2 below the trust anchor
        for depth in range(3, 35):      # ... down to depth 34
            sia = f"rsync://deep.example/repo/l{depth}/"
            ca = ca.issue_child_authority(
                f"Deep{depth}", ResourceSet.parse("63.174.18.0/23"),
                sia=sia, publication_point=server.mount(sia),
            )
        rp = make_rp(world)
        report = rp.refresh()
        exceeded = [i for i in report.run.issues if i.code == "depth-exceeded"]
        assert [i.point_uri for i in exceeded] == [
            "rsync://deep.example/repo/l33/"
        ]
        # Depth 33 is listed but not judged, so depth 34 never surfaces.
        subjects = [c.subject for c in report.run.validated_cas]
        assert "Deep33" in subjects and "Deep34" not in subjects
        rp.refresh()
        assert len(rp.last_run.issues) == len(report.run.issues)


class TestJudgedOnArrival:
    """A point is judged when its bytes arrive, not at the refresh's end."""

    def stale_manifests(self, run):
        return sorted(
            issue.point_uri for issue in run.issues
            if issue.code == "manifest-stale"
        )

    def test_delay_crossing_a_validity_edge_mid_refresh(self):
        world = build_figure2()
        faults = FaultInjector()
        rp = make_rp(world, faults=faults)
        rp.refresh()
        manifest = rp.validator._parse(
            rp.cache.point("rsync://arin.example/repo/").files[MANIFEST_FILE]
        )
        # Start 30 s before every manifest's next_update; Sprint's fetch
        # then takes 60 s, carrying the clock across the edge.
        world.clock.advance(manifest.next_update - 30 - world.clock.now)
        faults.schedule(
            FaultKind.DELAY, "rsync://sprint.example/repo/", delay_seconds=60,
        )
        report = rp.refresh()
        assert world.clock.now == manifest.next_update + 30
        # ARIN's point arrived (and was judged) before the edge; Sprint's
        # and everything below it after.
        assert self.stale_manifests(report.run) == [
            CONTINENTAL, ETB, "rsync://sprint.example/repo/",
        ]
        # A cold walk at the refresh's *last* instant judges ARIN stale
        # too: the one place the refresh and the oracle may differ.
        now = world.clock.now
        oracle = PathValidator(world.trust_anchors, metrics=MetricsRegistry())
        assert "rsync://arin.example/repo/" in self.stale_manifests(
            oracle.run(all_files(rp.cache, now), now)
        )


class TestStaleServeAccounting:
    def test_stale_point_counts_once_per_refresh(self):
        world, _smallbiz = build_deep_hierarchy()   # four levels: 4 rounds
        faults = FaultInjector()
        rp = make_rp(world, faults=faults, stale_grace=4 * HOUR)
        rp.refresh()
        world.clock.advance(HOUR)
        faults.schedule(FaultKind.UNREACHABLE, "rsync://sprint.example/repo/")
        report = rp.refresh()
        assert report.rounds == 4
        assert report.stale_points == ["rsync://sprint.example/repo/"]
        stale = rp.metrics.get("repro_cache_stale_serves_total")
        assert stale.value() == 1
        # Past the grace window the point is withheld — also counted once.
        world.clock.advance(5 * HOUR)
        faults.schedule(FaultKind.UNREACHABLE, "rsync://sprint.example/repo/")
        rp.refresh()
        assert rp.metrics.get("repro_cache_expired_drops_total").value() == 1
        assert stale.value() == 1
