"""Tests for the deployment advisor (Side Effects 5/6/7 pre-flight)."""

import pytest

from repro.core import (
    audit_repository_placement,
    plan_rollout,
)
from repro.modelgen import build_figure2, figure2_bgp
from repro.rp import VRP, Route, VrpSet


FIGURE2_VRPS = [
    ("63.161.0.0/16-24", 1239),
    ("63.162.0.0/16-24", 1239),
    ("63.168.93.0/24", 19429),
    ("63.174.16.0/20", 17054),
    ("63.174.16.0/22", 7341),
]


class TestRolloutOrdering:
    def test_specific_first(self):
        plan = plan_rollout([
            VRP.parse("63.160.0.0/12-13", 1239),
            VRP.parse("63.174.16.0/20", 17054),
            VRP.parse("63.174.16.0/22", 7341),
        ])
        lengths = [v.prefix.length for v in plan.steps]
        assert lengths == [22, 20, 12]

    def test_clean_rollout_no_warnings(self):
        plan = plan_rollout(
            [VRP.parse("63.168.93.0/24", 19429)],
            announced_routes=[Route.parse("63.168.93.0/24", 19429)],
        )
        assert not any(w.code == "invalidates-route" for w in plan.warnings)
        assert plan.warnings == []
        assert "side-effect-free" in plan.render()


class TestSideEffect5Warnings:
    def test_unauthorized_route_flagged(self):
        """Sprint plans the /12-13 ROA while a customer still announces an
        un-ROA'd /16 inside it: the advisor flags the flip to invalid."""
        plan = plan_rollout(
            [VRP.parse("63.160.0.0/12-13", 1239)],
            announced_routes=[
                Route.parse("63.163.0.0/16", 64512),   # would be orphaned
                Route.parse("63.160.0.0/12", 1239),    # covered by the plan
            ],
        )
        assert any(w.code == "invalidates-route" for w in plan.warnings)
        flagged = [w for w in plan.warnings if w.code == "invalidates-route"]
        assert len(flagged) == 1
        assert "63.163.0.0/16" in flagged[0].subject

    def test_route_saved_by_earlier_step_not_flagged(self):
        """If the customer's ROA is part of the same rollout, safe ordering
        means its route is never invalid at any step."""
        plan = plan_rollout(
            [
                VRP.parse("63.160.0.0/12-13", 1239),
                VRP.parse("63.163.0.0/16", 64512),
            ],
            announced_routes=[Route.parse("63.163.0.0/16", 64512)],
        )
        assert not any(w.code == "invalidates-route" for w in plan.warnings)

    def test_already_invalid_route_not_reflagged(self):
        existing = VrpSet([VRP.parse("63.160.0.0/12-13", 1239)])
        plan = plan_rollout(
            [VRP.parse("63.174.16.0/20", 17054)],
            existing=existing,
            announced_routes=[Route.parse("63.163.0.0/16", 64512)],
        )
        # That route was invalid before the rollout; not this plan's fault.
        assert all(w.code != "invalidates-route" for w in plan.warnings)


class TestSideEffect6Warnings:
    def test_covered_roa_flagged_as_fragile(self):
        plan = plan_rollout([
            VRP.parse("63.174.16.0/20", 17054),
            VRP.parse("63.174.16.0/22", 7341),
        ])
        fragile = [w for w in plan.warnings if w.code == "covered-roa"]
        assert len(fragile) == 1
        assert "(63.174.16.0/22, AS7341)" in fragile[0].subject
        assert "INVALID" in fragile[0].detail

    def test_covered_by_existing_roa_flagged(self):
        existing = VrpSet([VRP.parse("63.174.16.0/20", 17054)])
        plan = plan_rollout(
            [VRP.parse("63.174.20.0/24", 17054)], existing=existing
        )
        fragile = [w for w in plan.warnings if w.code == "covered-roa"]
        assert len(fragile) == 1

    def test_uncovered_roas_not_flagged(self):
        plan = plan_rollout([
            VRP.parse("63.161.0.0/16-24", 1239),
            VRP.parse("63.168.93.0/24", 19429),
        ])
        assert all(w.code != "covered-roa" for w in plan.warnings)


class TestPlacementAudit:
    def test_figure2_placement_flagged(self):
        world = build_figure2()
        world.sprint.issue_roa(1239, "63.160.0.0/12-13")
        _, originations, _ = figure2_bgp()
        warnings = audit_repository_placement(
            world.registry, [world.arin], originations
        )
        self_hosted = [w for w in warnings if w.code == "self-hosted"]
        assert len(self_hosted) == 1
        assert "continental.example" in self_hosted[0].subject
        assert "PERSISTENT" in self_hosted[0].detail
        assert "mirror" in self_hosted[0].detail

    def test_no_covering_roa_still_flagged_but_softer(self):
        world = build_figure2()  # without the /12-13 ROA
        _, originations, _ = figure2_bgp()
        warnings = audit_repository_placement(
            world.registry, [world.arin], originations
        )
        assert len(warnings) == 1
        assert "PERSISTENT" not in warnings[0].detail

    def test_mirror_fixes_the_audit(self):
        """After following the advisor's advice, the warning stays (the
        self-dependency is structural) but the loop is broken — verified
        separately in the SE7 countermeasure tests; here we just confirm
        the audit output is stable."""
        world = build_figure2()
        server = world.registry.by_host("sprint.example")
        uri = "rsync://sprint.example/mirror/continental/"
        world.continental.enable_mirror(uri, server.mount(uri))
        _, originations, _ = figure2_bgp()
        warnings = audit_repository_placement(
            world.registry, [world.arin], originations
        )
        assert any(w.code == "self-hosted" for w in warnings)
