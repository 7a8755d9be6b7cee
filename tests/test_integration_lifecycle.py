"""Full-lifecycle integration: every subsystem, one multi-epoch story.

A year in the life of the Figure 2 RPKI, one scene per test phase:

1. bootstrap: build, put a contact record up, validate, feed a router
   over RTR;
2. operations: churn (renewals, new customers), key rollover;
3. attack: Sprint whacks Continental's /20 ROA stealthily;
4. detection: the monitor's diff flags the shrink;
5. consequence: the router — fed via RTR — drops the route's validity,
   and under drop-invalid the prefix goes dark in BGP;
6. recovery: Suspenders would have held the route; manual reissuance
   restores it for everyone.
"""

import pytest

from repro.bgp import LocalPolicy, Origination, policy_table, propagate, reachable
from repro.core import execute_whack, plan_whack
from repro.modelgen import build_figure2, figure2_bgp
from repro.monitor import (
    AlertKind,
    ChurnConfig,
    ChurnEngine,
    analyze,
    diff_snapshots,
    take_snapshot,
)
from repro.repository import Fetcher
from repro.rp import RelyingParty, RouteValidity, validate
from repro.rtr import DuplexPipe, RouterState, RtrCacheServer, RtrRouterClient
from repro.simtime import DAY, HOUR

from .rpki.forge import publish_contact


@pytest.fixture(scope="module")
def story():
    """Run the whole story once; the tests assert its phases."""
    record = {}
    world = build_figure2()
    graph, originations, rp_asn = figure2_bgp()

    # -- phase 1: bootstrap ----------------------------------------------
    publish_contact(world.continental, {
        "fn": "Continental Broadband NOC",
        "email": "noc@continental.example",
    })
    # Sprint also covers its whole /12 (the Figure 5 right state): this is
    # what makes a later whack of the /20 produce INVALID, not unknown.
    world.sprint.issue_roa(1239, "63.160.0.0/12-13")
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock)
    )
    report = rp.refresh()
    record["bootstrap_vrps"] = len(rp.vrps)
    record["bootstrap_errors"] = len(report.run.errors())
    record["contact"] = report.run.contacts.get(
        "rsync://continental.example/repo/"
    )

    cache = RtrCacheServer()
    cache.update(rp.vrps)
    pipe = DuplexPipe()
    cache.attach(pipe)
    router = RtrRouterClient(pipe)
    router.connect()
    for _ in range(4):
        cache.process()
        router.process()
    record["router_state"] = router.state
    record["router_vrps_initial"] = router.vrp_count

    # -- phase 2: operations ------------------------------------------------
    churn = ChurnEngine(
        world.authorities(),
        config=ChurnConfig(renew_rate=0.5, new_roa_rate=0.2, retire_rate=0.0),
        seed=3,
    )
    for _ in range(3):
        world.clock.advance(DAY)
        churn.tick()
    world.sprint.roll_key()
    rp.refresh()
    cache.update(rp.vrps)
    for _ in range(4):
        cache.process()
        router.process()
    record["post_rollover_vrps"] = len(rp.vrps)
    record["post_rollover_router"] = router.vrp_count
    record["post_rollover_errors"] = len(rp.last_run.errors())

    # -- phase 3: the attack ----------------------------------------------------
    before = take_snapshot(world.registry, world.clock.now,
                           trust_anchors=world.trust_anchors)
    plan = plan_whack(world.sprint, world.target20, world.continental)
    execute_whack(plan)
    record["plan_collateral"] = plan.collateral_count
    world.clock.advance(HOUR)

    # -- phase 4: detection --------------------------------------------------------
    after = take_snapshot(world.registry, world.clock.now,
                           trust_anchors=world.trust_anchors)
    alerts = analyze(diff_snapshots(before, after), before, after)
    record["alerts"] = alerts

    # -- phase 5: consequence ---------------------------------------------------------
    rp.refresh()
    cache.update(rp.vrps)
    for _ in range(4):
        cache.process()
        router.process()
    record["router_vrps_post_whack"] = router.vrp_count
    router_vrps = router.vrp_set()
    record["router_validity"] = validate(
        "63.174.16.0/20", 17054, router_vrps
    ).state
    validity = lambda route: validate(  # noqa: E731
        route.prefix, route.origin, router_vrps).state
    policies = policy_table(
        list(graph.ases()), LocalPolicy.DROP_INVALID, validity
    )
    outcome = propagate(graph, originations, policies)
    record["reachable_post_whack"] = reachable(
        outcome, 64500, "63.174.23.5", 17054
    )

    # -- phase 6: recovery ---------------------------------------------------------------
    world.sprint.issue_roa(17054, "63.174.16.0/20")  # manual reissue
    rp.refresh()
    cache.update(rp.vrps)
    for _ in range(4):
        cache.process()
        router.process()
    recovered_vrps = router.vrp_set()
    record["router_validity_recovered"] = validate(
        "63.174.16.0/20", 17054, recovered_vrps
    ).state
    validity2 = lambda route: validate(  # noqa: E731
        route.prefix, route.origin, recovered_vrps).state
    policies2 = policy_table(
        list(graph.ases()), LocalPolicy.DROP_INVALID, validity2
    )
    outcome2 = propagate(graph, originations, policies2)
    record["reachable_recovered"] = reachable(
        outcome2, 64500, "63.174.23.5", 17054
    )
    return record


class TestLifecycle:
    def test_bootstrap_clean(self, story):
        assert story["bootstrap_vrps"] == 9
        assert story["bootstrap_errors"] == 0
        assert story["contact"] is not None
        assert story["contact"].vcard["email"] == "noc@continental.example"

    def test_router_synced(self, story):
        assert story["router_state"] is RouterState.SYNCED
        assert story["router_vrps_initial"] == 9

    def test_rollover_and_churn_survive_validation(self, story):
        assert story["post_rollover_errors"] == 0
        assert story["post_rollover_vrps"] >= 9  # churn may have added ROAs
        assert story["post_rollover_router"] == story["post_rollover_vrps"]

    def test_whack_had_no_collateral(self, story):
        assert story["plan_collateral"] == 0

    def test_monitor_caught_it(self, story):
        kinds = [a.kind for a in story["alerts"]]
        assert AlertKind.RC_SHRUNK in kinds
        shrink = next(a for a in story["alerts"]
                      if a.kind is AlertKind.RC_SHRUNK)
        assert "63.174.16.0/20, AS17054" in shrink.detail

    def test_route_went_dark_at_the_router(self, story):
        assert story["router_vrps_post_whack"] == (
            story["post_rollover_vrps"] - 1
        )
        assert story["router_validity"] is not RouteValidity.VALID
        assert story["reachable_post_whack"] is False

    def test_manual_recovery_restores_reachability(self, story):
        assert story["router_validity_recovered"] is RouteValidity.VALID
        assert story["reachable_recovered"] is True
