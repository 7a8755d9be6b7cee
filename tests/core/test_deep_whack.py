"""Side Effect 4 at full depth: whacking across a 4-level chain.

ARIN -> Sprint -> Continental Broadband -> SmallBiz.  Whacking SmallBiz's
ROA from Sprint (great-grandparent) or ARIN (great-great-grandparent)
must shrink the manipulator's direct child RC and suspiciously reissue
every damaged intermediate certificate — with zero lasting collateral.
"""

import pytest

from repro.core import (
    WhackMethod,
    execute_whack,
    plan_whack,
    subtree_roas,
)
from repro.repository import Fetcher
from repro.rp import RelyingParty, RouteValidity

from ..helpers import build_deep_hierarchy, find_roa


@pytest.fixture
def deep():
    return build_deep_hierarchy()


def fresh_rp(world):
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock)
    )
    rp.refresh()
    return rp


class TestDeepWorld:
    def test_hierarchy_depth(self, deep):
        world, smallbiz = deep
        assert smallbiz.parent is world.continental
        assert world.continental.parent is world.sprint
        assert world.sprint.parent is world.arin

    def test_validates_clean(self, deep):
        world, smallbiz = deep
        rp = fresh_rp(world)
        assert len(rp.vrps) == 10  # figure2's 8 + SmallBiz's 2
        assert rp.last_run.errors() == []

    def test_smallbiz_roas_valid(self, deep):
        world, _ = deep
        rp = fresh_rp(world)
        assert rp.classify_parts("63.174.18.0/24", 64700) is RouteValidity.VALID
        assert rp.classify_parts("63.174.19.0/24", 64700) is RouteValidity.VALID


class TestGreatGrandparentWhack:
    def test_sprint_whacks_smallbiz_roa(self, deep):
        world, smallbiz = deep
        found = find_roa(smallbiz, "63.174.18.0/24", 64700)
        assert found is not None
        _name, target = found

        plan = plan_whack(world.sprint, target, smallbiz)
        # Sprint shrinks its direct child (Continental); the chain down to
        # SmallBiz is damaged and must be reissued.
        assert plan.shrink_child is world.continental
        assert plan.method is WhackMethod.MAKE_BEFORE_BREAK
        reissued_kinds = {d.kind for d in plan.reissued}
        assert "rc" in reissued_kinds  # SmallBiz's RC crosses the hole
        assert plan.collateral_count == 0

        execute_whack(plan)
        rp = fresh_rp(world)
        # Target whacked; its sibling ROA and everything else survive.
        assert rp.classify_parts("63.174.18.0/24", 64700) is not (
            RouteValidity.VALID
        )
        assert rp.classify_parts("63.174.19.0/24", 64700) is RouteValidity.VALID
        assert rp.classify_parts("63.174.16.0/20", 17054) is RouteValidity.VALID
        assert len(rp.vrps) == 9

    def test_arin_whacks_smallbiz_roa(self, deep):
        """Three levels of separation: two intermediate RCs in the chain."""
        world, smallbiz = deep
        _name, target = find_roa(smallbiz, "63.174.19.0/24", 64700)

        plan = plan_whack(world.arin, target, smallbiz)
        assert plan.shrink_child is world.sprint
        damaged_rc_subjects = {c.subject for c in plan.damaged_certs}
        assert damaged_rc_subjects == {"Continental Broadband", "SmallBiz"}

        execute_whack(plan)
        rp = fresh_rp(world)
        assert rp.classify_parts("63.174.19.0/24", 64700) is not (
            RouteValidity.VALID
        )
        # Zero collateral across the entire deep tree.
        assert len(rp.vrps) == 9
        assert rp.classify_parts("63.174.18.0/24", 64700) is RouteValidity.VALID
        assert rp.classify_parts("63.174.16.0/22", 7341) is RouteValidity.VALID

    def test_detection_scales_with_depth(self, deep):
        """'More suspiciously-reissued objects, and could be easier to
        detect' — the reissue count grows with manipulator distance."""
        world, smallbiz = deep
        _n1, target = find_roa(smallbiz, "63.174.18.0/24", 64700)
        parent_plan = plan_whack(world.continental, target, smallbiz)
        grand_plan = plan_whack(world.sprint, target, smallbiz)
        great_plan = plan_whack(world.arin, target, smallbiz)
        assert (
            parent_plan.suspicious_reissue_count
            <= grand_plan.suspicious_reissue_count
            < great_plan.suspicious_reissue_count
        )

    def test_monitor_sees_the_deep_whack(self, deep):
        from repro.monitor import AlertKind, analyze, diff_snapshots, take_snapshot

        world, smallbiz = deep
        _name, target = find_roa(smallbiz, "63.174.18.0/24", 64700)
        before = take_snapshot(world.registry, world.clock.now,
                               trust_anchors=world.trust_anchors)
        execute_whack(plan_whack(world.arin, target, smallbiz))
        after = take_snapshot(world.registry, world.clock.now,
                               trust_anchors=world.trust_anchors)
        alerts = analyze(diff_snapshots(before, after), before, after)
        kinds = {a.kind for a in alerts}
        assert AlertKind.RC_SHRUNK in kinds
        # The louder footprint: multiple suspicious events at once.
        suspicious = [a for a in alerts if a.is_suspicious]
        assert len(suspicious) >= 2
