"""One relying party: validation state is always kept.

Every ``RelyingParty`` carries an ``IncrementalState`` for its lifetime;
``incremental_state.clear()`` is how a caller asks for a cold refresh.
``mode`` survives only as its one legal value, ``"incremental"``, and the
retired spellings fail loudly instead of being silently ignored.
"""

import pytest

from repro.modelgen import build_figure2
from repro.repository import Fetcher
from repro.rp import IncrementalState, PathValidator, RelyingParty
from repro.telemetry import MetricsRegistry


def make_rp(world, **kwargs):
    registry = kwargs.pop("metrics", None) or MetricsRegistry()
    fetcher = Fetcher(world.registry, world.clock, metrics=registry)
    return RelyingParty(world.trust_anchors, fetcher,
                        metrics=registry, **kwargs)


@pytest.fixture
def world():
    return build_figure2()


class TestModeKnob:
    def test_engine_modes_constant(self):
        with pytest.raises(ImportError):
            from repro import ENGINE_MODES  # noqa: F401
        with pytest.raises(ImportError):
            from repro.rp import ENGINE_MODES  # noqa: F401, F811

    def test_serial_mode_rejected(self, world):
        with pytest.raises(ValueError, match=r"incremental_state\.clear\(\)"):
            make_rp(world, mode="serial")

    def test_incremental_mode(self, world):
        rp = make_rp(world, mode="incremental")
        assert not hasattr(rp, "mode")
        assert isinstance(rp.incremental_state, IncrementalState)
        assert rp.validator.incremental is rp.incremental_state
        assert rp.vrps is rp.incremental_state.vrps

    def test_unknown_mode_rejected(self, world):
        for mode in ("turbo", "parallel", None):
            with pytest.raises(ValueError, match="mode"):
                make_rp(world, mode=mode)

    def test_serial_with_workers_rejected(self, world):
        with pytest.raises(TypeError, match="workers"):
            make_rp(world, workers=4)

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
        # The state is kept: a second refresh reuses the memoized
        # validation work, and clearing it makes the next one cold.
        rp = make_rp(world)
        rp.refresh()
        first = len(rp.vrps)
        rp.refresh()
        assert len(rp.vrps) == first
        points = rp.metrics.get("repro_incremental_points_total")
        reused = points.value(outcome="reused")
        assert reused > 0
        validated = points.value(outcome="validated")
        rp.incremental_state.clear()
        report = rp.refresh()
        assert points.value(outcome="reused") == reused
        assert points.value(outcome="validated") == 2 * validated
        assert len(rp.vrps) == first
        assert report.announced == () and report.withdrawn == ()
