"""Bound children across a reset, pulled counts, and the refresh path.

A child kept by its caller (``Metric.bind``) stays the one the registry
reads across ``reset()``: the reset zeroes it and parks it out of view,
and its next event brings it back.  So binding ahead of use and
resetting both add no zero-valued series, and the refresh path binds
its label children once instead of resolving them per event.
"""

import pytest

from repro import RelyingParty, build_figure2
from repro.repository import Fetcher
from repro.telemetry import MetricError, MetricsRegistry, default_registry
from repro.telemetry.metrics import Metric


class TestBind:
    def test_increment_reset_increment_renders_the_count(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", labelnames=("kind",))
        gauge = registry.gauge("repro_y", labelnames=("kind",))
        histogram = registry.histogram("repro_z", (1.0,), labelnames=("kind",))
        bound = (counter.bind(kind="a"), gauge.bind(kind="a"),
                 histogram.bind(kind="a"))
        bound[0].inc(2)
        bound[1].set(5)
        bound[2].observe(0.5)
        registry.reset()
        bound[0].inc()
        bound[1].inc(3)
        bound[2].observe(2.0)
        text = registry.render_text()
        assert 'repro_x_total{kind="a"} 1\n' in text
        assert 'repro_y{kind="a"} 3\n' in text
        assert 'repro_z_bucket{kind="a",le="1"} 0\n' in text
        assert 'repro_z_count{kind="a"} 1\n' in text
        assert counter.value(kind="a") == 1 and gauge.value(kind="a") == 3

    def test_no_zero_valued_series_from_binding_or_reset(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", labelnames=("kind",))
        idle, used = counter.bind(kind="idle"), counter.bind(kind="used")
        assert registry.render_text() == "# TYPE repro_x_total counter\n"
        used.inc()
        assert 'kind="idle"' not in registry.render_text()
        registry.reset()
        assert registry.render_text() == "# TYPE repro_x_total counter\n"
        assert counter.bind(kind="used") is used
        assert counter.labels(kind="idle") is idle     # labels() shows it
        assert 'repro_x_total{kind="idle"} 0' in registry.render_text()

    def test_the_default_registry_keeps_module_bindings(self):
        from repro.crypto.rsa import _VERIFIED

        default_registry().reset()
        assert "repro_crypto_verify_total{" not in (
            default_registry().render_text())
        _VERIFIED[True].inc()
        verify = default_registry().get("repro_crypto_verify_total")
        assert verify.value(outcome="accepted") == 1
        default_registry().reset()


class TestPull:
    def test_sources_sum_and_reset_rebases(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", labelnames=("kind",))
        tallies = [0, 0]
        counter.pull(lambda: tallies[0], kind="a")
        counter.pull(lambda: tallies[1], kind="a")
        assert 'repro_x_total{kind="a"} 0' in registry.render_text()
        tallies[:] = [2, 3]
        assert counter.value(kind="a") == 5
        registry.reset()
        assert 'kind="a"' not in registry.render_text()
        tallies[1] += 1
        assert 'repro_x_total{kind="a"} 1' in registry.render_text()
        # A source pulled in after a reset shows the child, as labels() does.
        registry.reset()
        counter.pull(lambda: 0, kind="a")
        assert 'repro_x_total{kind="a"} 0' in registry.render_text()

    def test_a_pushed_child_cannot_also_be_pulled(self):
        counter = MetricsRegistry().counter("repro_x_total",
                                            labelnames=("kind",))
        counter.inc(kind="a")
        with pytest.raises(MetricError):
            counter.pull(lambda: 1, kind="a")


@pytest.fixture
def labels_calls(monkeypatch):
    calls = []
    real = Metric.labels

    def counting(self, **labelvalues):
        calls.append(self.name)
        return real(self, **labelvalues)

    monkeypatch.setattr(Metric, "labels", counting)
    return calls


@pytest.fixture
def figure2_rp():
    world = build_figure2()
    registry = MetricsRegistry()
    rp = RelyingParty(world.trust_anchors,
                      Fetcher(world.registry, world.clock, metrics=registry),
                      metrics=registry)
    return world, rp


# Was: one labels() per fetch, per cache update, per point and per RSA
# verification: 171 per idle refresh and 5,559 per cold one at the e2e
# benchmark's ``bench`` scale.

def test_a_cold_refresh_resolves_at_most_ten_labels(figure2_rp, labels_calls):
    _world, rp = figure2_rp
    del labels_calls[:]
    rp.refresh()
    assert len(labels_calls) <= 10, sorted(labels_calls)


def test_an_idle_refresh_resolves_no_labels(figure2_rp, labels_calls):
    world, rp = figure2_rp
    rp.refresh()
    world.clock.advance(240)
    del labels_calls[:]
    rp.refresh()
    assert labels_calls == []


def test_compacting_the_rtr_history_resolves_no_labels(labels_calls):
    # Was: one labels() per serial evicted from the delta history.
    from repro.rp import VRP
    from repro.rtr import RtrCacheServer

    cache = RtrCacheServer(metrics=MetricsRegistry(), history_window=4)
    vrps = [VRP.parse(f"10.0.{i}.0/24", 64_500) for i in range(40)]
    del labels_calls[:]
    for vrp in vrps:
        cache.apply_delta([vrp], [])
    assert labels_calls == [] and cache.delta_history_serials == 4
    compactions = cache.metrics.get("repro_rtr_compactions_total")
    assert compactions.value(reason="window") == 36
