"""End-to-end: a refresh populates the documented metric names.

These names are the stability guarantee of docs/telemetry.md — if one of
these assertions fails after a refactor, the metric inventory changed and
the docs (and downstream dashboards) must change with it, deliberately.
"""

import pytest

from repro import (
    Fetcher,
    MetricsRegistry,
    RelyingParty,
    RtrCacheServer,
    build_figure2,
)


@pytest.fixture
def world():
    return build_figure2()


@pytest.fixture
def metrics():
    return MetricsRegistry()


@pytest.fixture
def rp(world, metrics):
    fetcher = Fetcher(world.registry, world.clock, metrics=metrics)
    return RelyingParty(world.trust_anchors, fetcher, metrics=metrics)


class TestRefreshPopulatesMetrics:
    def test_expected_names_present(self, rp, metrics):
        rp.refresh()
        for name in [
            "repro_fetch_total",
            "repro_fetch_bytes_total",
            "repro_fetch_objects_total",
            "repro_cache_updates_total",
            "repro_cache_points",
            "repro_validation_runs_total",
            "repro_validation_objects_total",
            "repro_validation_issues_total",
            "repro_rp_refresh_total",
            "repro_rp_refresh_rounds_total",
            "repro_rp_refresh_seconds",
            "repro_rp_vrps",
        ]:
            assert name in metrics, f"missing {name}"

    def test_figure2_refresh_values(self, rp, metrics):
        report = rp.refresh()
        assert metrics.get("repro_rp_refresh_total").value() == 1
        assert (metrics.get("repro_rp_refresh_rounds_total").value()
                == report.rounds == 3)
        assert metrics.get("repro_rp_vrps").value() == 8
        assert metrics.get("repro_fetch_total").value(status="ok") == 4
        assert metrics.get("repro_fetch_objects_total").value() > 0
        assert metrics.get("repro_fetch_bytes_total").value() > 0
        assert metrics.get("repro_cache_points").value() == len(rp.cache)
        # One walk per refresh, whatever the number of rounds: objects are
        # booked once, not once per round.
        assert metrics.get("repro_validation_runs_total").value() == 1
        assert metrics.get("repro_validation_objects_total").value(type="roa") == 8
        assert metrics.get("repro_validation_objects_total").value(type="ca") == 4
        assert metrics.get("repro_rp_refresh_seconds").sample().count == 1
        assert len(metrics.spans) == 1

    def test_classification_counts_by_state(self, rp, metrics):
        rp.refresh()
        assert rp.classify_parts("63.174.16.0/20", 17054).value == "valid"
        assert rp.classify_parts("63.174.17.0/24", 17054).value == "invalid"
        assert rp.classify_parts("63.160.0.0/12", 1239).value == "unknown"
        counter = metrics.get("repro_rp_route_classifications_total")
        assert counter.value(state="valid") == 1
        assert counter.value(state="invalid") == 1
        assert counter.value(state="unknown") == 1

    def test_per_rp_registries_are_isolated(self, world):
        own_a, own_b = MetricsRegistry(), MetricsRegistry()
        rp_a = RelyingParty(
            world.trust_anchors,
            Fetcher(world.registry, world.clock, metrics=own_a),
            metrics=own_a,
        )
        RelyingParty(
            world.trust_anchors,
            Fetcher(world.registry, world.clock, metrics=own_b),
            metrics=own_b,
        )
        rp_a.refresh()
        assert own_a.get("repro_rp_refresh_total").value() == 1
        assert own_b.get("repro_rp_refresh_total").value() == 0

    def test_refresh_metrics_are_deterministic(self, world):
        def run():
            fresh_world = build_figure2()
            registry = MetricsRegistry()
            fetcher = Fetcher(fresh_world.registry, fresh_world.clock,
                              metrics=registry)
            RelyingParty(fresh_world.trust_anchors, fetcher,
                         metrics=registry).refresh()
            return registry.render_text()

        assert run() == run()


class TestRtrMetrics:
    def test_serial_bumps_and_pdus(self, rp, metrics):
        from repro import DuplexPipe, RtrRouterClient

        rp.refresh()
        server = RtrCacheServer(metrics=metrics)
        server.update(rp.vrps)
        assert metrics.get("repro_rtr_serial_bumps_total").value() == 1
        assert metrics.get("repro_rtr_vrps").value() == 8

        pipe = DuplexPipe()
        server.attach(pipe)
        client = RtrRouterClient(pipe)
        client.connect()
        for _ in range(3):
            server.process()
            client.process()
        assert client.vrp_count == 8
        pdus = metrics.get("repro_rtr_pdus_sent_total")
        assert pdus.value(type="prefix_pdu") == 8
        assert pdus.value(type="cache_response") >= 1
        assert pdus.value(type="end_of_data") >= 1

    def test_noop_update_does_not_bump(self, rp, metrics):
        rp.refresh()
        server = RtrCacheServer(metrics=metrics)
        server.update(rp.vrps)
        server.update(rp.vrps)
        assert metrics.get("repro_rtr_serial_bumps_total").value() == 1
