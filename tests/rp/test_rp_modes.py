"""The one persistence switch of RelyingParty.

``mode="serial"`` keeps no validation state between refreshes,
``mode="incremental"`` keeps it; nothing else selects an engine, and the
retired spellings fail loudly instead of being silently ignored.
"""

import pytest

from repro.modelgen import build_figure2
from repro.repository import Fetcher
from repro.rp import ENGINE_MODES, PathValidator, RelyingParty
from repro.telemetry import MetricsRegistry


def make_rp(world, **kwargs):
    registry = kwargs.pop("metrics", None) or MetricsRegistry()
    fetcher = Fetcher(world.registry, world.clock, metrics=registry)
    return RelyingParty(world.trust_anchors, fetcher, world.clock,
                        metrics=registry, **kwargs)


@pytest.fixture
def world():
    return build_figure2()


class TestModeKnob:
    def test_engine_modes_constant(self):
        assert ENGINE_MODES == ("serial", "incremental")

    def test_default_is_serial(self, world):
        rp = make_rp(world)
        assert rp.mode == "serial"
        assert rp.incremental_state is None

    def test_incremental_mode(self, world):
        rp = make_rp(world, mode="incremental")
        assert rp.mode == "incremental"
        assert rp.incremental_state is not None

    def test_unknown_mode_rejected(self, world):
        for mode in ("turbo", "parallel", None):
            with pytest.raises(ValueError, match="mode"):
                make_rp(world, mode=mode)

    def test_serial_with_workers_rejected(self, world):
        with pytest.raises(TypeError, match="workers"):
            make_rp(world, mode="serial", workers=4)

    def test_incremental_keyword_rejected(self, world):
        with pytest.raises(TypeError, match="incremental"):
            make_rp(world, incremental=True)

    def test_object_retention_switches_rejected(self, world):
        # A validation result has one shape; nothing selects another.
        with pytest.raises(TypeError, match="lean"):
            make_rp(world, lean=True)
        with pytest.raises(TypeError, match="collect_objects"):
            PathValidator(world.trust_anchors, collect_objects=False)

    def test_incremental_mode_refreshes(self, world):
        # The knob must actually keep the state: a second refresh in
        # incremental mode reuses the memoized validation work.
        rp = make_rp(world, mode="incremental")
        rp.refresh()
        first = len(rp.vrps)
        rp.refresh()
        assert len(rp.vrps) == first
        points = rp.metrics.get("repro_incremental_points_total")
        assert points.value(outcome="reused") > 0
