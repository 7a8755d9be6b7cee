"""Tests for Section 6 / Side Effect 7: circular dependencies and the
transient-fault-to-persistent-failure loop."""

import pytest

from repro.bgp import LocalPolicy
from repro.core import (
    ClosedLoopSimulation,
    RepositoryDependencyGraph,
    execute_whack,
    plan_whack,
)
from repro.modelgen import build_figure2, figure2_bgp
from repro.repository import FaultInjector, FaultKind
from repro.rp import RouteValidity


@pytest.fixture
def setup():
    world = build_figure2()
    graph, originations, rp_asn = figure2_bgp()
    return world, graph, originations, rp_asn


def self_hosted_points(analysis):
    """Points whose own route's ROA is stored at themselves."""
    return [risk.cycle[0] for risk in analysis.cycles() if len(risk.cycle) == 1]


def make_loop(world, graph, originations, rp_asn, policy, faults=None):
    return ClosedLoopSimulation(
        registry=world.registry,
        authorities=[world.arin],
        graph=graph,
        originations=originations,
        rp_asn=rp_asn,
        policy=policy,
        clock=world.clock,
        faults=faults,
    )


class TestDependencyGraph:
    def test_continental_is_self_hosted(self, setup):
        world, graph, originations, _ = setup
        analysis = RepositoryDependencyGraph.build(
            world.registry, [world.arin], originations
        )
        # Condition (a): the ROA for the route to Continental's repository
        # is stored at that same repository.
        assert "rsync://continental.example/repo/" in self_hosted_points(analysis)

    def test_other_points_not_self_hosted(self, setup):
        world, graph, originations, _ = setup
        analysis = RepositoryDependencyGraph.build(
            world.registry, [world.arin], originations
        )
        self_hosted = self_hosted_points(analysis)
        assert "rsync://arin.example/repo/" not in self_hosted
        assert "rsync://etb.example/repo/" not in self_hosted

    def test_covering_threat_requires_the_slash12_roa(self, setup):
        world, graph, originations, _ = setup
        before = RepositoryDependencyGraph.build(
            world.registry, [world.arin], originations
        )
        cycles_before = [c for c in before.cycles() if len(c.cycle) == 1]
        assert cycles_before and not cycles_before[0].covering_threat

        # Figure 5 (right): Sprint's /12-13 ROA covers — but does not
        # match — the route to Continental's repository.  Condition (b).
        world.sprint.issue_roa(1239, "63.160.0.0/12-13")
        after = RepositoryDependencyGraph.build(
            world.registry, [world.arin], originations
        )
        cycles_after = [c for c in after.cycles() if len(c.cycle) == 1]
        assert cycles_after and cycles_after[0].covering_threat
        assert cycles_after[0].is_persistent_failure_trap

    def test_edges_name_the_roa_and_route(self, setup):
        world, _, originations, _ = setup
        analysis = RepositoryDependencyGraph.build(
            world.registry, [world.arin], originations
        )
        self_edges = [
            e for e in analysis.edges
            if e.dependent == e.dependency == "rsync://continental.example/repo/"
        ]
        assert len(self_edges) == 1
        assert self_edges[0].roa == "(63.174.16.0/20, AS17054)"
        assert "63.174.16.0/20" in self_edges[0].route


class TestClosedLoopHealthy:
    def test_steady_state(self, setup):
        world, graph, originations, rp_asn = setup
        loop = make_loop(world, graph, originations, rp_asn,
                         LocalPolicy.DROP_INVALID)
        reports = loop.run(3)
        assert all(r.vrp_count == 8 for r in reports)
        assert all(not r.unreachable_points for r in reports)
        assert loop.route_is_valid("63.174.16.0/20", 17054)
        assert loop.can_reach("63.174.23.0", 17054)

    def test_scheduled_whack_flips_the_route(self, setup):
        """A whack between epochs 1 and 2 shows in the next epoch."""
        world, graph, originations, rp_asn = setup
        world.sprint.issue_roa(1239, "63.160.0.0/12-13")
        loop = make_loop(world, graph, originations, rp_asn,
                         LocalPolicy.DROP_INVALID)
        states = []
        for epoch in range(4):
            if epoch == 2:
                execute_whack(plan_whack(
                    world.sprint, world.target20, world.continental))
            loop.step()
            states.append(loop.rp.classify_parts("63.174.16.0/20", 17054))
        assert states == [RouteValidity.VALID] * 2 + [RouteValidity.INVALID] * 2


class TestSideEffect7:
    """The paper's exact chain of events."""

    def prepare(self, setup, policy, *, renew=True):
        world, graph, originations, rp_asn = setup
        # Condition (b): the covering-but-not-matching ROA exists.
        world.sprint.issue_roa(1239, "63.160.0.0/12-13")
        faults = FaultInjector(seed=7)
        loop = make_loop(world, graph, originations, rp_asn, policy, faults)
        return world, loop, faults

    def test_transient_fault_becomes_persistent_under_drop_invalid(self, setup):
        world, loop, faults = self.prepare(setup, LocalPolicy.DROP_INVALID)
        # Epoch 0: healthy.
        healthy = loop.step()
        assert loop.route_is_valid("63.174.16.0/20", 17054)

        # Epoch 1: ONE corrupted fetch of the self-hosted ROA (transient).
        faults.schedule(
            FaultKind.CORRUPT,
            "rsync://continental.example/repo/",
            file_name=world.target20_name,
        )
        loop.step()
        assert not loop.route_is_valid("63.174.16.0/20", 17054)

        # Epochs 2+: the fault is gone, the repository is healthy and
        # serving the good ROA — but the relying party can never fetch it:
        # the route to the repository is invalid, so rsync cannot connect.
        for _ in range(4):
            report = loop.step()
        assert "rsync://continental.example/repo/" in report.unreachable_points
        assert not loop.route_is_valid("63.174.16.0/20", 17054)
        assert not loop.can_reach("63.174.23.0", 17054)

    def test_same_fault_heals_under_depref_invalid(self, setup):
        world, loop, faults = self.prepare(setup, LocalPolicy.DEPREF_INVALID)
        loop.step()
        faults.schedule(
            FaultKind.CORRUPT,
            "rsync://continental.example/repo/",
            file_name=world.target20_name,
        )
        loop.step()
        assert not loop.route_is_valid("63.174.16.0/20", 17054)
        # Next epoch: the invalid route is still *used* (depref), so the
        # repository stays reachable and the good ROA comes back.
        report = loop.step()
        assert not report.unreachable_points
        assert loop.route_is_valid("63.174.16.0/20", 17054)
        assert loop.can_reach("63.174.23.0", 17054)

    def test_no_covering_roa_no_persistence(self, setup):
        """Without condition (b) the fault heals even under drop-invalid:
        the route degrades to *unknown*, which drop-invalid still uses."""
        world, graph, originations, rp_asn = setup
        faults = FaultInjector(seed=7)
        loop = make_loop(world, graph, originations, rp_asn,
                         LocalPolicy.DROP_INVALID, faults)
        loop.step()
        faults.schedule(
            FaultKind.CORRUPT,
            "rsync://continental.example/repo/",
            file_name=world.target20_name,
        )
        loop.step()
        report = loop.step()
        assert not report.unreachable_points
        assert loop.route_is_valid("63.174.16.0/20", 17054)

    def test_manual_recovery_procedure(self, setup):
        """The paper: 'This can be fixed (manually)' — e.g. the operator
        moves the ROA to a reachable repository (here: Sprint reissues)."""
        world, loop, faults = self.prepare(setup, LocalPolicy.DROP_INVALID)
        loop.step()
        faults.schedule(
            FaultKind.CORRUPT,
            "rsync://continental.example/repo/",
            file_name=world.target20_name,
        )
        loop.step()
        loop.step()
        assert not loop.route_is_valid("63.174.16.0/20", 17054)
        # Manual fix: Sprint (whose repository IS reachable) issues an
        # equivalent ROA out-of-band.
        world.sprint.issue_roa(17054, "63.174.16.0/20")
        loop.step()
        assert loop.route_is_valid("63.174.16.0/20", 17054)
        loop.step()  # and the original repository becomes fetchable again
        assert loop.can_reach("63.174.23.0", 17054)
