"""Counter/gauge/histogram semantics, naming rules, JSON round-trip."""

import json

import pytest

from repro.telemetry import (
    MetricError,
    MetricsRegistry,
    default_registry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestNaming:
    @pytest.mark.parametrize("bad", [
        "fetch_total",            # missing prefix
        "repro_FetchTotal",       # not snake_case
        "repro_fetch-total",      # dash
        "repro_",                 # empty stem
        "repro__fetch",           # double underscore
        "Repro_fetch_total",      # capitalized prefix
    ])
    def test_bad_names_rejected(self, registry, bad):
        with pytest.raises(MetricError):
            registry.counter(bad)

    def test_good_names_accepted(self, registry):
        registry.counter("repro_fetch_total")
        registry.gauge("repro_cache_points")
        registry.histogram("repro_rp_refresh_seconds", (1.0, 2.0))

    def test_bad_label_name_rejected(self, registry):
        with pytest.raises(MetricError):
            registry.counter("repro_x_total", labelnames=("Bad-Label",))


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        counter = registry.counter("repro_events_total")
        assert counter.value() == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_cannot_go_down(self, registry):
        counter = registry.counter("repro_events_total")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_labels_are_independent(self, registry):
        counter = registry.counter("repro_events_total", labelnames=("kind",))
        counter.inc(kind="a")
        counter.inc(3, kind="b")
        assert counter.value(kind="a") == 1
        assert counter.value(kind="b") == 3

    def test_wrong_labelset_rejected(self, registry):
        counter = registry.counter("repro_events_total", labelnames=("kind",))
        with pytest.raises(MetricError):
            counter.inc(other="x")
        with pytest.raises(MetricError):
            counter.inc()  # missing required label? no — unlabeled child
        # ^ unlabeled inc on a labeled metric must fail loudly, not create
        # a phantom child.

    def test_get_or_create_is_idempotent(self, registry):
        first = registry.counter("repro_events_total")
        first.inc()
        again = registry.counter("repro_events_total")
        assert again is first and again.value() == 1

    def test_conflicting_registration_rejected(self, registry):
        registry.counter("repro_events_total")
        with pytest.raises(MetricError):
            registry.gauge("repro_events_total")
        with pytest.raises(MetricError):
            registry.counter("repro_events_total", labelnames=("kind",))


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("repro_cache_points")
        gauge.set(10)
        gauge.inc(5)
        gauge.inc(-3)
        assert gauge.value() == 12


class TestHistogram:
    def test_bucket_edges_are_inclusive(self, registry):
        # A value exactly on an upper bound lands in that bucket (le =
        # "less than or equal"), matching Prometheus semantics.
        histogram = registry.histogram("repro_x_seconds", (1.0, 10.0))
        histogram.observe(1.0)
        sample = histogram.sample()
        assert sample.bucket_counts == [1, 1]  # cumulative
        assert sample.count == 1 and sample.sum == 1.0

    def test_overflow_goes_to_inf_only(self, registry):
        histogram = registry.histogram("repro_x_seconds", (1.0, 10.0))
        histogram.observe(99.0)
        sample = histogram.sample()
        assert sample.bucket_counts == [0, 0]
        assert sample.count == 1 and sample.sum == 99.0

    def test_cumulative_counts(self, registry):
        histogram = registry.histogram("repro_x_seconds", (1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.sample().bucket_counts == [1, 2, 3]
        assert histogram.sample().count == 4

    def test_buckets_must_increase(self, registry):
        with pytest.raises(MetricError):
            registry.histogram("repro_x_seconds", (10.0, 1.0))
        with pytest.raises(MetricError):
            registry.histogram("repro_y_seconds", (1.0, 1.0))
        with pytest.raises(MetricError):
            registry.histogram("repro_z_seconds", ())

    def test_conflicting_buckets_rejected(self, registry):
        registry.histogram("repro_x_seconds", (1.0, 10.0))
        with pytest.raises(MetricError):
            registry.histogram("repro_x_seconds", (1.0, 20.0))


class TestRendering:
    def _populated(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "repro_fetch_total", help="fetches", labelnames=("status",)
        )
        counter.inc(status="ok")
        counter.inc(2, status="faulted")
        registry.gauge("repro_rp_vrps").set(8)
        registry.histogram("repro_x_seconds", (1.0, 60.0)).observe(5.0)
        return registry

    def test_text_is_sorted_and_complete(self):
        text = self._populated().render_text()
        assert text.index("repro_fetch_total") < text.index("repro_rp_vrps")
        assert 'repro_fetch_total{status="faulted"} 2' in text
        assert 'repro_fetch_total{status="ok"} 1' in text
        assert "repro_rp_vrps 8" in text
        assert 'repro_x_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_x_seconds_sum 5" in text

    def test_json_round_trip(self):
        registry = self._populated()
        payload = json.loads(registry.render_json())
        restored = MetricsRegistry.from_dict(payload)
        assert restored.to_dict() == registry.to_dict()
        assert restored.render_text() == registry.render_text()
        counter = restored.get("repro_fetch_total")
        assert counter.value(status="faulted") == 2

    def test_render_is_deterministic(self):
        assert self._populated().render_text() == self._populated().render_text()

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_text() == ""


class TestReset:
    def test_reset_zeroes_but_keeps_registration(self, registry):
        counter = registry.counter("repro_events_total", labelnames=("kind",))
        counter.inc(kind="a")
        registry.reset()
        assert counter.value(kind="a") == 0
        assert "repro_events_total" in registry


class TestDefaultRegistry:
    def test_singleton_and_reset_in_place(self):
        first = default_registry()
        counter = first.counter("repro_test_default_total")
        counter.inc()
        default_registry().reset()
        assert default_registry() is first
        assert counter.value() == 0
