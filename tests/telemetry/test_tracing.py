"""Trace nodes are timed by the simulated clock — deterministically — and
a refresh records its stage tree into them."""

import dataclasses

import pytest

from repro import Fetcher, RelyingParty, build_figure2
from repro.modelgen import INTERNET_SCALES, build_deployment
from repro.profiling import stage_table
from repro.simtime import Clock
from repro.telemetry import MetricError, MetricsRegistry, TraceNode, metrics

# The bound the log tests run at: MAX_SPANS patched down, so that going
# ten times past it stays cheap.
BOUND = 256


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestSpanTiming:
    def test_duration_is_simulated_elapsed_time(self, registry):
        clock = Clock()
        clock.advance(100)
        with registry.trace("repro_work_seconds", clock) as node:
            clock.advance(42)
        assert node.start == 100 and node.end == 142
        assert node.duration == 42 and node.seconds is None

    def test_no_clock_advance_means_zero_duration(self, registry):
        clock = Clock()
        with registry.trace("repro_work_seconds", clock):
            pass
        assert registry.traces[-1].duration == 0

    def test_duration_lands_in_histogram(self, registry):
        clock = Clock()
        with registry.trace("repro_work_seconds", clock):
            clock.advance(30)
        sample = registry.get("repro_work_seconds").sample()
        assert sample.count == 1 and sample.sum == 30.0

    def test_labels_flow_through(self, registry):
        clock = Clock()
        with registry.trace("repro_work_seconds", clock, phase="fetch"):
            clock.advance(5)
        assert registry.traces[-1].name == "repro_work_seconds"
        sample = registry.get("repro_work_seconds").sample(phase="fetch")
        assert sample.sum == 5.0

    def test_a_traced_histogram_is_resolved_once_and_still_checked(
            self, registry):
        clock = Clock()
        for _ in range(3):
            with registry.trace("repro_work_seconds", clock, phase="fetch"):
                clock.advance(1)
        traced = registry.get("repro_work_seconds")
        assert registry._traced == {
            ("repro_work_seconds", "phase"): traced}
        assert traced.sample(phase="fetch").count == 3
        # An explicit registration is checked against it as before.
        assert registry.histogram(
            "repro_work_seconds", labelnames=("phase",)) is traced
        with pytest.raises(MetricError, match="conflicting histogram buckets"):
            registry.histogram(
                "repro_work_seconds", (1.0, 2.0), labelnames=("phase",))
        with pytest.raises(MetricError, match="already registered with labels"):
            registry.histogram("repro_work_seconds")
        # So is a trace under other label names, on its first use.
        with pytest.raises(MetricError, match="already registered with labels"):
            with registry.trace("repro_work_seconds", clock):
                pass

    def test_exception_still_closes_span(self, registry):
        clock = Clock()
        with pytest.raises(RuntimeError):
            with registry.trace("repro_work_seconds", clock):
                inner = registry.open("stage", clock.now)
                clock.advance(7)
                raise RuntimeError("boom")
        root = registry.traces[-1]
        assert root.end == 7 and root.duration == 7
        # A node left open inside closes with its tree.
        assert inner.end == 7 and root.children == [inner]
        assert registry.get("repro_work_seconds").sample().count == 1

    def test_identical_runs_produce_identical_spans(self):
        def run():
            registry = MetricsRegistry()
            clock = Clock()
            for step in (10, 20, 30):
                with registry.trace("repro_step_seconds", clock):
                    clock.advance(step)
            return registry.render_text()

        assert run() == run()

    def test_nested_spans(self, registry):
        clock = Clock()
        with registry.trace("repro_outer_seconds", clock):
            clock.advance(1)
            with registry.trace("repro_inner_seconds", clock):
                clock.advance(2)
            clock.advance(3)
        (outer,) = registry.traces
        (inner,) = outer.children
        assert (outer.name, outer.duration) == ("repro_outer_seconds", 6)
        assert (inner.name, inner.duration) == ("repro_inner_seconds", 2)


class TestSpanSerialization:
    def test_round_trip(self):
        node = TraceNode("judge", 5, 9, {"points": 2})
        node.seconds = 0.5
        node.children.append(TraceNode("point rsync://a/", 5, 9))
        assert TraceNode.from_dict(node.to_dict()).to_dict() == node.to_dict()

    def test_str_form(self):
        node = TraceNode("repro_x_seconds", 5, 9, {"points": 2})
        assert str(node) == "repro_x_seconds[5..9] points=2"
        assert node.stage == "repro_x_seconds"
        assert TraceNode("point rsync://a/", 0).stage == "point"


class TestSpanLogBound:
    """The registry keeps at most MAX_SPANS nodes, dropping whole trees."""

    @pytest.fixture(autouse=True)
    def bound(self, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_SPANS", BOUND)

    @staticmethod
    def trace_n(registry, clock, count, children=0):
        for _ in range(count):
            with registry.trace("repro_work_seconds", clock):
                for _ in range(children):
                    registry.close(registry.open("leaf", clock.now),
                                   clock.now)
                clock.advance(1)

    def test_at_the_bound_nothing_is_dropped(self, registry):
        self.trace_n(registry, Clock(), BOUND)
        assert [s.start for s in registry.traces] == list(range(BOUND))

    def test_past_the_bound_the_newest_stay_newest_last(self, registry):
        total = 10 * BOUND
        self.trace_n(registry, Clock(), total)
        assert len(registry.traces) == BOUND
        assert [s.start for s in registry.traces] == list(
            range(total - BOUND, total))
        # The histogram still counts every traced block.
        assert registry.get("repro_work_seconds").sample().count == total

    def test_full_log_renders_round_trips_and_resets(self, registry):
        self.trace_n(registry, Clock(), BOUND + 3)
        assert registry.render_text().count("# trace ") == BOUND
        clone = MetricsRegistry.from_dict(registry.to_dict())
        assert clone.to_dict() == registry.to_dict()
        registry.reset()
        assert len(registry.traces) == 0
        self.trace_n(registry, Clock(), 1)
        assert len(registry.traces) == 1

    def test_the_bound_counts_nodes_not_trees(self, registry):
        # Trees of four nodes: a quarter as many fit, whole.
        self.trace_n(registry, Clock(), BOUND, children=3)
        assert len(registry.traces) == BOUND // 4
        assert sum(len(list(t.walk())) for t in registry.traces) == BOUND
        assert all(len(t.children) == 3 for t in registry.traces)

    def test_one_tree_past_the_bound_keeps_its_first_nodes(self, registry):
        clock = Clock()
        self.trace_n(registry, clock, 5)
        with registry.trace("repro_work_seconds", clock) as root:
            nodes = [registry.open("leaf", clock.now) for _ in range(BOUND)]
            registry.close(nodes[0], clock.now)
        # The older trees made room; the open tree is never dropped.
        assert list(registry.traces) == [root]
        assert len(list(root.walk())) == BOUND
        assert nodes[BOUND - 2].children is not None
        assert nodes[BOUND - 1].children is None  # recorded nowhere
        # A node opened outside any trace is recorded nowhere either.
        loose = registry.open("leaf", clock.now)
        registry.close(loose, clock.now)
        assert loose.children is None and list(registry.traces) == [root]


# -- the refresh's stage tree ------------------------------------------------


def refresh_tree(world, registry):
    """The tree one refresh of a new relying party records."""
    fetcher = Fetcher(world.registry, world.clock, metrics=registry)
    RelyingParty(world.trust_anchors, fetcher, metrics=registry).refresh()
    return registry.traces[-1]


def flat_world(width):
    return build_deployment(dataclasses.replace(
        INTERNET_SCALES["internet-small"], isps_per_rir=width,
        roas_per_isp=2))


class TestRefreshTree:
    def test_timed_stages_and_self_add_up_to_the_root(self):
        root = refresh_tree(build_figure2(), MetricsRegistry(
            timer=iter(range(0, 10**6, 3)).__next__))
        rows = stage_table(root)
        assert sum(r["seconds"] for r in rows) == pytest.approx(root.seconds)
        assert all(node.self_seconds >= 0 for node in root.walk())
        assert {r["stage"] for r in rows} >= {
            "level", "fetch", "judge", "point", "decode", "verify",
            "row-build", "row-judge", "vrp-edit", "unattributed"}

    def test_a_cold_refresh_is_a_node_per_validated_point(self):
        world = build_figure2()
        root = refresh_tree(world, MetricsRegistry())
        levels = [n for n in root.children if n.stage == "level"]
        assert [[c.name for c in level.children] for level in levels] == [
            ["fetch", "judge"]] * 3
        points = [n for n in root.walk() if n.stage == "point"]
        assert len(points) == 4 == sum(
            n.counts["points"] for n in root.walk() if n.name == "judge")
        continental = next(p for p in points if "continental" in p.name)
        assert continental.counts["rows_built"] == 5
        assert continental.counts["verifies"] == 12
        assert all(not p.children for p in points)  # stages only when timed

    def test_an_idle_refresh_is_nodes_per_level_not_per_point(self):
        sizes = []
        for width in (1, 4):
            world, registry = flat_world(width), MetricsRegistry()
            fetcher = Fetcher(world.registry, world.clock, metrics=registry)
            rp = RelyingParty(world.trust_anchors, fetcher, metrics=registry)
            rp.refresh()
            world.clock.advance(1)
            rp.refresh()
            idle = registry.traces[-1]
            judges = [n for n in idle.walk() if n.name == "judge"]
            assert sum(j.counts["replayed"] for j in judges) == 5 + 5 * width
            assert not any(n.stage == "point" for n in idle.walk())
            sizes.append(len(list(idle.walk())))
        assert sizes[0] == sizes[1] == 8

    def test_identical_untimed_refreshes_record_equal_trees(self):
        def run():
            registry = MetricsRegistry()
            refresh_tree(build_figure2(), registry)
            return registry.to_dict()

        first = run()
        assert first == run() and first["traces"]
        clone = MetricsRegistry.from_dict(first)
        assert clone.to_dict() == first
        assert clone._nodes == sum(
            len(list(TraceNode.from_dict(t).walk())) for t in first["traces"])
