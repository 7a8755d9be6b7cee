"""Spans are timed by the simulated clock — deterministically."""

import pytest

from repro.simtime import Clock
from repro.telemetry import MetricsRegistry, Span
from repro.telemetry.metrics import MAX_SPANS


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestSpanTiming:
    def test_duration_is_simulated_elapsed_time(self, registry):
        clock = Clock()
        clock.advance(100)
        with registry.trace("repro_work_seconds", clock) as span:
            clock.advance(42)
        assert span.start == 100 and span.end == 142
        assert span.duration == 42

    def test_no_clock_advance_means_zero_duration(self, registry):
        clock = Clock()
        with registry.trace("repro_work_seconds", clock):
            pass
        assert registry.spans[-1].duration == 0

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
        span = registry.spans[-1]
        assert span.labels == {"phase": "fetch"}
        sample = registry.get("repro_work_seconds").sample(phase="fetch")
        assert sample.sum == 5.0

    def test_exception_still_closes_span(self, registry):
        clock = Clock()
        with pytest.raises(RuntimeError):
            with registry.trace("repro_work_seconds", clock):
                clock.advance(7)
                raise RuntimeError("boom")
        span = registry.spans[-1]
        assert span.end == 7 and span.duration == 7
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
        outer, inner = registry.spans
        assert (outer.name, outer.duration) == ("repro_outer_seconds", 6)
        assert (inner.name, inner.duration) == ("repro_inner_seconds", 2)


class TestSpanSerialization:
    def test_round_trip(self):
        span = Span("repro_x_seconds", start=5, end=9, labels={"a": "b"})
        assert Span.from_dict(span.to_dict()) == span

    def test_str_form(self):
        span = Span("repro_x_seconds", start=5, end=9, labels={"a": "b"})
        assert str(span) == "repro_x_seconds[5..9] a=b"


class TestSpanLogBound:
    """The span log keeps the newest MAX_SPANS and nothing else grows."""

    @staticmethod
    def trace_n(registry, clock, count):
        for _ in range(count):
            with registry.trace("repro_work_seconds", clock):
                clock.advance(1)

    def test_at_the_bound_nothing_is_dropped(self, registry):
        self.trace_n(registry, Clock(), MAX_SPANS)
        assert [s.start for s in registry.spans] == list(range(MAX_SPANS))

    def test_past_the_bound_the_newest_stay_newest_last(self, registry):
        total = 10 * MAX_SPANS
        self.trace_n(registry, Clock(), total)
        assert len(registry.spans) == MAX_SPANS
        assert [s.start for s in registry.spans] == list(
            range(total - MAX_SPANS, total))
        # The histogram still counts every traced block.
        assert registry.get("repro_work_seconds").sample().count == total

    def test_full_log_renders_round_trips_and_resets(self, registry):
        self.trace_n(registry, Clock(), MAX_SPANS + 3)
        assert registry.render_text().count("# span ") == MAX_SPANS
        clone = MetricsRegistry.from_dict(registry.to_dict())
        assert list(clone.spans) == list(registry.spans)
        assert clone.spans.maxlen == MAX_SPANS
        registry.reset()
        assert len(registry.spans) == 0
        self.trace_n(registry, Clock(), 1)
        assert len(registry.spans) == 1
