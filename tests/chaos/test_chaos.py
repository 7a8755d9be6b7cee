"""Tests for the chaos campaign: plans, invariants, the shrinker.

Campaign executions here are deliberately tiny (two RIRs, a handful of
cycles) — the 200-cycle acceptance sweep lives in the benchmark suite;
these tests pin the semantics: determinism, the three invariants, the
staged violation, and shrinking to a minimal reproducer.
"""

import pytest

from repro.chaos import (
    FAULT_MENU,
    CampaignConfig,
    FaultPlan,
    PlannedFault,
    Violation,
    build_plan,
    run_campaign,
    shrink_plan,
)
from repro.repository import FaultInjector, FaultKind

POINTS = ["rsync://a.example/repo/", "rsync://b.example/repo/"]


class TestPlans:
    def test_build_plan_is_deterministic(self):
        one = build_plan(7, 10, POINTS)
        two = build_plan(7, 10, POINTS)
        assert one == two

    def test_different_seeds_differ(self):
        assert build_plan(7, 20, POINTS) != build_plan(8, 20, POINTS)

    def test_menu_covers_every_family(self):
        kinds = set(FAULT_MENU)
        assert FaultKind.STALL in kinds          # timing
        assert FaultKind.AMPLIFY in kinds        # subtree amplification
        assert FaultKind.CORRUPT in kinds        # byte-level
        assert FaultKind.SPLIT_VIEW in kinds     # Byzantine
        assert FaultKind.MANIFEST_REPLAY in kinds
        assert FaultKind.STALE_CRL in kinds
        assert FaultKind.KEY_SWAP in kinds
        assert FaultKind.OVERSIZED in kinds

    def test_amplify_draws_target_a_whole_host(self):
        plan = build_plan(7, 300, POINTS)
        amplified = [f for f in plan.faults if f.kind is FaultKind.AMPLIFY]
        assert amplified  # 300 cycles always draw the kind at least once
        for fault in amplified:
            scheme, _, rest = fault.point_uri.partition("://")
            assert scheme == "rsync"
            assert rest.endswith("/") and "/" not in rest[:-1]
            assert fault.delay_seconds >= 0

    def test_amplify_never_exhausts_within_a_cycle(self):
        fault = PlannedFault(0, FaultKind.AMPLIFY, "rsync://a.example/")
        injector = FaultInjector()
        fault.schedule_on(injector)
        for i in range(8):  # every point under the prefix stays slow
            assert injector.point_delay(f"rsync://a.example/repo/amp{i}/") \
                is None

    def test_persistent_fault_active_from_cycle_on(self):
        fault = PlannedFault(3, FaultKind.STALL, POINTS[0], persistent=True)
        assert not fault.active_at(2)
        assert fault.active_at(3) and fault.active_at(9)
        one_shot = PlannedFault(3, FaultKind.STALL, POINTS[0])
        assert one_shot.active_at(3) and not one_shot.active_at(4)

    def test_schedule_on_injector(self):
        fault = PlannedFault(0, FaultKind.DROP, POINTS[0])
        injector = FaultInjector()
        fault.schedule_on(injector)
        assert injector.filter_file(POINTS[0], "x.roa", b"data") is None
        # One-shot: consumed.
        assert injector.filter_file(POINTS[0], "x.roa", b"data") == b"data"

    def test_without_removes_one_entry(self):
        plan = build_plan(7, 10, POINTS)
        assert len(plan) > 1
        smaller = plan.without(0)
        assert len(smaller) == len(plan) - 1
        assert smaller.faults == plan.faults[1:]

    def test_describe_mentions_every_fault(self):
        plan = build_plan(7, 10, POINTS)
        text = plan.describe()
        assert text.count("\n") + 1 == len(plan)
        assert FaultPlan(seed=1, cycles=1).describe() == "(empty plan)"

    def test_validation(self):
        with pytest.raises(ValueError):
            build_plan(7, 0, POINTS)
        with pytest.raises(ValueError):
            build_plan(7, 5, [])


class TestCampaign:
    CONFIG = CampaignConfig(seed=7, cycles=4)

    def test_clean_campaign_holds_all_invariants(self):
        result = run_campaign(self.CONFIG)
        assert result.ok and result.violation is None
        assert result.cycles_run == 4
        assert result.clean_vrps > 0

    def test_campaign_is_deterministic(self):
        one = run_campaign(self.CONFIG)
        two = run_campaign(self.CONFIG)
        assert one.plan == two.plan
        assert one.faults_fired == two.faults_fired
        assert one.clean_vrps == two.clean_vrps
        assert one.quarantined_objects == two.quarantined_objects

    def test_empty_plan_fires_nothing(self):
        empty = FaultPlan(seed=7, cycles=4)
        result = run_campaign(self.CONFIG, plan=empty)
        assert result.ok
        assert result.faults_fired == 0

    def test_explicit_byzantine_plan_is_contained(self):
        result = run_campaign(self.CONFIG)
        uri = result.plan.faults[0].point_uri if len(result.plan) else None
        plan = FaultPlan(seed=7, cycles=4, faults=tuple(
            PlannedFault(0, kind, uri or POINTS[0], persistent=True)
            for kind in (
                FaultKind.MANIFEST_REPLAY,
                FaultKind.STALE_CRL,
                FaultKind.KEY_SWAP,
                FaultKind.SPLIT_VIEW,
            )
        ))
        result = run_campaign(self.CONFIG, plan=plan)
        assert result.ok, str(result.violation)

    def test_campaign_metrics_registry(self):
        result = run_campaign(self.CONFIG)
        cycles = result.metrics.get("repro_chaos_cycles_total")
        assert cycles.value() == result.cycles_run


class TestStagedViolation:
    DEMO = CampaignConfig(seed=11, cycles=4, plant_violation=True)

    def test_planted_violation_is_caught(self):
        result = run_campaign(self.DEMO)
        assert result.violation is not None
        assert isinstance(result.violation, Violation)
        assert result.violation.invariant == "safety"
        assert "clean run never produced" in result.violation.detail

    def test_shrinks_to_minimal_reproducer(self):
        staged = run_campaign(self.DEMO)
        minimal, runs = shrink_plan(self.DEMO, staged.plan)
        assert 1 <= len(minimal) <= 3
        assert runs >= 1
        # The shrunk plan still reproduces the violation.
        again = run_campaign(self.DEMO, plan=minimal)
        assert again.violation is not None
        assert again.violation.invariant == "safety"

    def test_shrink_rejects_clean_plan(self):
        clean = CampaignConfig(seed=7, cycles=3)
        result = run_campaign(clean)
        assert result.ok
        with pytest.raises(ValueError):
            shrink_plan(clean, result.plan)


class TestBoundedInterference:
    def test_amplified_campaign_holds_the_bound(self):
        config = CampaignConfig(seed=7, cycles=6, amplification_points=4)
        result = run_campaign(config)
        assert result.ok, str(result.violation)
        assert result.interference_bound == config.interference_bound
        assert 0 <= result.interference_worst <= result.interference_bound

    def test_default_bound_derivation(self):
        config = CampaignConfig()
        assert (config.gap_seconds, config.attempt_timeout) == (900, 600)
        assert config.interference_bound == 4 * (900 + 2 * 600)

    def test_impossible_bound_is_violated_and_shrinks(self, monkeypatch):
        # A 1-second bound is unsatisfiable the moment any timing fault
        # burns clock between two unrelated fetches — so the invariant
        # must fire, name the right invariant, and delta-debug down to a
        # minimal plan exactly like the other invariants do.
        monkeypatch.setattr(CampaignConfig, "interference_bound", 1)
        config = CampaignConfig(seed=7, cycles=20)
        result = run_campaign(config)
        assert result.violation is not None
        assert result.violation.invariant == "bounded-interference"
        assert "unrelated point" in result.violation.detail
        minimal, runs = shrink_plan(config, result.plan)
        assert len(minimal) == 1
        again = run_campaign(config, plan=minimal)
        assert again.violation is not None
        assert again.violation.invariant == "bounded-interference"

    def test_amplified_campaign_is_deterministic(self):
        config = CampaignConfig(seed=9, cycles=4, amplification_points=3)
        one = run_campaign(config)
        two = run_campaign(config)
        assert one.ok and two.ok
        assert one.interference_worst == two.interference_worst
        assert one.faults_fired == two.faults_fired

    def test_amplification_rejects_flat_generator(self):
        import pytest as _pytest
        from repro.modelgen import DeploymentConfig
        with _pytest.raises(ValueError):
            DeploymentConfig(flat=True, amplification_points=2)


class TestStallorisHarness:
    def test_attack_contrast(self):
        from repro.chaos import StallorisConfig, measure_stalloris

        report = measure_stalloris(StallorisConfig(cycles=4))
        assert report.amplifier_host
        assert report.amplifier_points == 8
        assert [run.name for run in report.runs] == ["budget", "scheduled"]
        budget = report.run(scheduled=False)
        scheduled = report.run(scheduled=True)
        # Unscheduled: victim age grows one full cycle per cycle and
        # crosses the stale grace — the time-to-stale downgrade.
        ages = budget.victim_age
        assert all(b - a == 2100 for a, b in zip(ages, ages[1:]))
        assert budget.time_to_stale is not None
        # Scheduled: victim age pinned at one burst, never downgrades.
        assert scheduled.time_to_stale is None
        assert max(scheduled.victim_age) <= 2 * 1200
        assert max(scheduled.deferred) > 0

    def test_harness_is_deterministic(self):
        from repro.chaos import StallorisConfig, measure_stalloris

        config = StallorisConfig(cycles=3)
        one = measure_stalloris(config)
        two = measure_stalloris(config)
        assert [r.as_dict() for r in one.runs] == \
            [r.as_dict() for r in two.runs]

    def test_render_and_validation(self):
        from repro.chaos import StallorisConfig, measure_stalloris

        report = measure_stalloris(StallorisConfig(cycles=2))
        text = report.render()
        assert report.amplifier_host in text
        assert "time-to-stale" in text
        with pytest.raises(ValueError):
            StallorisConfig(amplification_points=0)
        with pytest.raises(ValueError):
            StallorisConfig(cycles=0)
        # The world and the timings are fixed; they read as before.
        assert StallorisConfig().stale_grace == 3600
        with pytest.raises(KeyError):
            report.run(None)
        # One relying party: a run is named by its defense alone.
        with pytest.raises(TypeError):
            report.run("serial", False)
        assert "engine" not in report.runs[0].as_dict()


class TestFanOutTopology:
    def test_chained_tiers_hold_equivalence(self):
        config = CampaignConfig(seed=7, cycles=4)
        result = run_campaign(config)
        assert result.ok, str(result.violation)
        assert result.chain_caches == 2  # one tier of two

    def test_fan_out_campaign_is_deterministic(self):
        config = CampaignConfig(seed=9, cycles=4)
        one = run_campaign(config)
        two = run_campaign(config)
        assert one.ok and two.ok
        assert one.rtr_events == two.rtr_events
        assert one.faults_fired == two.faults_fired
