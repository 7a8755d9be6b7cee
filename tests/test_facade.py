"""The top-level facade: ``from repro import X`` is the public API."""

import repro


class TestFacade:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_star_import_surface(self):
        namespace = {}
        exec("from repro import *", namespace)
        for name in ("RelyingParty", "Fetcher", "build_figure2", "Clock",
                     "VrpSet", "MetricsRegistry", "default_registry"):
            assert name in namespace

    def test_documented_quickstart_works(self):
        # The README Quickstart, verbatim in spirit: facade imports only.
        from repro import Fetcher, RelyingParty, build_figure2

        world = build_figure2()
        rp = RelyingParty(world.trust_anchors,
                          Fetcher(world.registry, world.clock))
        rp.refresh()
        assert rp.classify_parts("63.174.16.0/20", 17054).value == "valid"

    def test_clock_defaults_to_fetchers(self):
        from repro import Fetcher, RelyingParty, build_figure2

        world = build_figure2()
        fetcher = Fetcher(world.registry, world.clock)
        rp = RelyingParty(world.trust_anchors, fetcher)
        assert rp._clock is fetcher.clock is world.clock

    def test_facade_matches_subpackage_objects(self):
        # The facade re-exports, it does not wrap: identity must hold so
        # isinstance checks work across entry points.
        from repro.repository import Fetcher as DeepFetcher
        from repro.rp import RelyingParty as DeepRp

        assert repro.Fetcher is DeepFetcher
        assert repro.RelyingParty is DeepRp

    def test_version_present(self):
        assert isinstance(repro.__version__, str)

    def test_version_matches_pyproject(self):
        import pathlib
        import re

        pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
        declared = re.search(
            r'^version = "([^"]+)"$', pyproject.read_text(), re.MULTILINE
        ).group(1)
        assert repro.__version__ == declared

    def test_all_is_sorted_within_reason(self):
        # Guard against silent drops: a generous floor on the surface.
        assert len(repro.__all__) >= 100
        # Sorted-by-construction and duplicate-free — the same invariant
        # tools/check_facade.py lints, asserted here directly so the
        # failure points at the facade rather than the lint harness.
        assert list(repro.__all__) == sorted(repro.__all__)
        assert len(set(repro.__all__)) == len(repro.__all__)

    def test_query_plane_exports(self):
        # The 1.6.0 additions: the api package and the unified origin
        # validation entry point are part of the facade.
        from repro.api import QueryService as DeepService
        from repro.rp.origin import validate as deep_validate

        assert repro.QueryService is DeepService
        assert repro.validate is deep_validate
        assert not hasattr(repro, "ENGINE_MODES")
