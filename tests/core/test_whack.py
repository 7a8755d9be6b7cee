"""Tests for the whacking taxonomy — Side Effects 1-4 and Figure 3."""

import pytest

from repro.core import (
    WhackError,
    WhackMethod,
    collateral_of_revocation,
    execute_whack,
    find_hole,
    plan_whack,
    subtree_roas,
)
from repro.modelgen import build_figure2
from repro.repository import Fetcher
from repro.resources import Prefix, ResourceSet
from repro.rp import RelyingParty, RouteValidity

from ..helpers import find_roa


@pytest.fixture
def world():
    return build_figure2()


def fresh_rp(world):
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock)
    )
    rp.refresh()
    return rp


class TestSubtreeAccounting:
    def test_subtree_roas_counts(self, world):
        assert len(subtree_roas(world.continental)) == 5
        assert len(subtree_roas(world.sprint)) == 8  # 2 own + 1 ETB + 5 CB
        assert len(subtree_roas(world.arin)) == 8

    def test_revocation_collateral_is_four_roas(self, world):
        """Paper, Section 3.1: revoking Continental Broadband's RC to kill
        the /20 target 'would whack four additional ROAs'."""
        damage = collateral_of_revocation(world.continental, world.target20)
        roas = [d for d in damage if d.kind == "roa"]
        assert len(roas) == 4


class TestHoleFinding:
    def test_clean_hole_for_target20(self, world):
        hole, damage = find_hole(world.continental, world.target20)
        assert damage == []
        # The hole sits inside the target's /20 and clear of every other ROA.
        assert Prefix.parse("63.174.16.0/20").covers(hole)
        for _h, _n, roa in subtree_roas(world.continental):
            if roa == world.target20:
                continue
            assert not any(rp.prefix.overlaps(hole) for rp in roa.prefixes)

    def test_no_clean_hole_for_target22(self, world):
        # Every address of the /22 is covered by the /20 ROA.
        hole, damage = find_hole(world.continental, world.target22)
        assert len(damage) == 1
        kind, holder, obj = damage[0]
        assert kind == "roa" and obj == world.target20


class TestPlanSelection:
    def test_own_roa_is_a_delete(self, world):
        _, roa = find_roa(world.sprint, "63.161.0.0/16-24", 1239)
        plan = plan_whack(world.sprint, roa, world.sprint)
        assert plan.method is WhackMethod.DELETE_OWN_ROA
        assert plan.collateral_count == 0

    def test_grandchild_clean_hole_is_overwrite_shrink(self, world):
        plan = plan_whack(world.sprint, world.target20, world.continental)
        assert plan.method is WhackMethod.OVERWRITE_SHRINK
        assert plan.collateral_count == 0
        assert plan.suspicious_reissue_count == 0
        assert plan.shrink_child is world.continental

    def test_overlapped_target_needs_make_before_break(self, world):
        plan = plan_whack(world.sprint, world.target22, world.continental)
        assert plan.method is WhackMethod.MAKE_BEFORE_BREAK
        assert plan.suspicious_reissue_count == 1  # the /20 ROA (Figure 3)
        assert plan.collateral_count == 0
        assert "63.174.16.0/20" in plan.reissued[0].description

    def test_non_ancestor_rejected(self, world):
        with pytest.raises(WhackError):
            plan_whack(world.etb, world.target20, world.continental)

    def test_great_grandparent_plan(self, world):
        # ARIN whacking Continental's ROA: the chain is
        # ARIN -> Sprint -> Continental, so ARIN shrinks Sprint's RC and
        # must reissue the damaged intermediate (Continental's RC).
        plan = plan_whack(world.arin, world.target20, world.continental)
        assert plan.shrink_child is world.sprint
        assert plan.method is WhackMethod.MAKE_BEFORE_BREAK
        # "more suspiciously-reissued objects" than the grandparent case.
        assert plan.suspicious_reissue_count >= 1
        assert any(d.kind == "rc" for d in plan.reissued)

    def test_describe_readable(self, world):
        text = plan_whack(world.sprint, world.target20, world.continental).describe()
        assert "overwrite-shrink" in text and "Sprint" in text


class TestExecution:
    def test_delete_own_roa(self, world):
        _, roa = find_roa(world.sprint, "63.161.0.0/16-24", 1239)
        plan = plan_whack(world.sprint, roa, world.sprint)
        execute_whack(plan)
        rp = fresh_rp(world)
        assert len(rp.vrps) == 7
        assert rp.classify_parts("63.161.0.0/16", 1239) is RouteValidity.UNKNOWN

    def test_overwrite_shrink_whacks_only_the_target(self, world):
        plan = plan_whack(world.sprint, world.target20, world.continental)
        execute_whack(plan)
        rp = fresh_rp(world)
        assert len(rp.vrps) == 7
        # The target's route loses its ROA (here: unknown, since nothing
        # else covers the /20)...
        assert rp.classify_parts("63.174.16.0/20", 17054) is RouteValidity.UNKNOWN
        # ...every other ROA still stands.
        assert rp.classify_parts("63.174.16.0/22", 7341) is RouteValidity.VALID
        assert rp.classify_parts("63.174.20.0/24", 17054) is RouteValidity.VALID
        assert rp.classify_parts("63.174.28.0/24", 17054) is RouteValidity.VALID
        assert rp.classify_parts("63.168.93.0/24", 19429) is RouteValidity.VALID

    def test_shrunken_rc_visible(self, world):
        plan = plan_whack(world.sprint, world.target20, world.continental)
        execute_whack(plan)
        assert plan.hole is not None
        assert not world.continental.resources.overlaps(plan.hole)
        assert world.continental.resources.covers(Prefix.parse("63.174.16.0/22"))

    def test_make_before_break_keeps_route_valid(self, world):
        """Figure 3: the /22 ROA dies; the /20 route survives because
        Sprint reissued its ROA before breaking Continental's RC."""
        plan = plan_whack(world.sprint, world.target22, world.continental)
        execute_whack(plan)
        rp = fresh_rp(world)
        # The target is whacked — and *invalid*, not unknown, because the
        # reissued /20 ROA covers it.
        assert rp.classify_parts("63.174.16.0/22", 7341) is RouteValidity.INVALID
        # The /20 route is still valid, via Sprint's suspicious reissue.
        assert rp.classify_parts("63.174.16.0/20", 17054) is RouteValidity.VALID
        # The reissued ROA now lives at Sprint's publication point.
        assert find_roa(world.sprint, "63.174.16.0/20", 17054) is not None

    def test_great_grandparent_execution(self, world):
        plan = plan_whack(world.arin, world.target20, world.continental)
        execute_whack(plan)
        rp = fresh_rp(world)
        # Target whacked...
        assert rp.classify_parts("63.174.16.0/20", 17054) is not RouteValidity.VALID
        # ...with no collateral: all 7 other ROAs still produce VRPs.
        assert len(rp.vrps) == 7
        assert rp.classify_parts("63.174.16.0/22", 7341) is RouteValidity.VALID
        assert rp.classify_parts("63.161.0.0/16", 1239) is RouteValidity.VALID

    def test_revocation_method_execution(self, world):
        from repro.core import WhackPlan

        plan = WhackPlan(
            manipulator=world.sprint,
            target=world.target20,
            target_holder=world.continental,
            method=WhackMethod.REVOKE_CHILD_CERT,
            shrink_child=world.continental,
        )
        execute_whack(plan)
        rp = fresh_rp(world)
        # Blunt: all five Continental ROAs are gone.
        assert len(rp.vrps) == 3
