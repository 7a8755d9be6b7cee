"""Unit tests for URIs, servers, fetching, faults, and the local cache."""

import gc
import weakref

import pytest

from repro.modelgen import build_figure2
from repro.repository import (
    BYZANTINE_KINDS,
    PERSISTENT,
    FaultInjector,
    FaultKind,
    FetchStatus,
    Fetcher,
    HostLocator,
    LocalCache,
    MountError,
    RepositoryRegistry,
    UnknownHostError,
    nested_bomb,
)
from repro.repository import faults as faults_module
from repro.rp import RelyingParty
from repro.rpki import RsyncUri, UriError
from repro.simtime import HOUR, Clock
from repro.telemetry import MetricsRegistry

from ..helpers import all_files


class TestRsyncUri:
    def test_parse(self):
        uri = RsyncUri.parse("rsync://sprint/repo/")
        assert uri.host == "sprint"
        assert uri.path == "repo"
        assert str(uri) == "rsync://sprint/repo/"

    def test_parse_nested(self):
        uri = RsyncUri.parse("rsync://sprint/repo/continental/")
        assert uri.path == "repo/continental"

    def test_join(self):
        uri = RsyncUri.parse("rsync://sprint/repo/")
        assert uri.join("ca.crl").path == "repo/ca.crl"

    def test_join_rejects_slash(self):
        with pytest.raises(UriError):
            RsyncUri.parse("rsync://a/b/").join("x/y")

    @pytest.mark.parametrize("bad", ["http://x/y", "rsync://", "sprint/repo"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(UriError):
            RsyncUri.parse(bad)

    def test_host_only(self):
        uri = RsyncUri.parse("rsync://sprint/")
        assert uri.path == ""
        assert str(uri) == "rsync://sprint/"


class TestHostLocator:
    def test_parse(self):
        loc = HostLocator.parse("63.174.23.0", 17054)
        assert str(loc.host_prefix) == "63.174.23.0/32"
        assert int(loc.origin_asn) == 17054

    def test_str(self):
        loc = HostLocator.parse("63.174.23.0", 17054)
        assert "63.174.23.0" in str(loc) and "AS17054" in str(loc)


class TestRegistryAndServer:
    def make(self):
        registry = RepositoryRegistry()
        server = registry.create_server(
            "continental", HostLocator.parse("63.174.23.0", 17054)
        )
        return registry, server

    def test_mount_and_resolve(self):
        registry, server = self.make()
        point = server.mount("rsync://continental/repo/")
        point.put("a.roa", b"data")
        resolved = registry.resolve("rsync://continental/repo/")
        assert resolved is point
        assert resolved.get("a.roa") == b"data"

    def test_mount_host_mismatch(self):
        _, server = self.make()
        with pytest.raises(MountError):
            server.mount("rsync://other/repo/")

    def test_mount_collision(self):
        _, server = self.make()
        server.mount("rsync://continental/repo/")
        with pytest.raises(MountError):
            server.mount("rsync://continental/repo/")

    def test_duplicate_host(self):
        registry, _ = self.make()
        with pytest.raises(MountError):
            registry.create_server(
                "continental", HostLocator.parse("1.2.3.4", 1)
            )

    def test_unknown_host(self):
        registry, _ = self.make()
        with pytest.raises(UnknownHostError):
            registry.by_host("nope")
        with pytest.raises(UnknownHostError):
            registry.resolve("rsync://continental/missing/")

    def test_contains(self):
        registry, _ = self.make()
        assert "continental" in registry
        assert "nope" not in registry


class TestFetcher:
    def setup_world(self, **fetcher_kwargs):
        registry = RepositoryRegistry()
        server = registry.create_server(
            "continental", HostLocator.parse("63.174.23.0", 17054)
        )
        point = server.mount("rsync://continental/repo/")
        point.put("a.roa", b"roa-bytes")
        point.put("b.cer", b"cer-bytes")
        clock = Clock()
        clock.advance(100)
        fetcher = Fetcher(registry, clock, **fetcher_kwargs)
        return registry, point, clock, fetcher

    def test_successful_fetch(self):
        _, _, _, fetcher = self.setup_world()
        result = fetcher.fetch_point("rsync://continental/repo/")
        assert result.ok
        assert result.files == {"a.roa": b"roa-bytes", "b.cer": b"cer-bytes"}
        assert result.fetched_at == 100

    def test_unknown_host(self):
        _, _, _, fetcher = self.setup_world()
        result = fetcher.fetch_point("rsync://ghost/repo/")
        assert result.status is FetchStatus.UNKNOWN_HOST
        assert result.files == {}

    def test_unreachable_when_routing_says_no(self):
        _, _, _, fetcher = self.setup_world(reachability=lambda locator: False)
        result = fetcher.fetch_point("rsync://continental/repo/")
        assert result.status is FetchStatus.UNREACHABLE

    def test_reachability_gets_the_locator(self):
        seen = []
        _, _, _, fetcher = self.setup_world(
            reachability=lambda locator: (seen.append(locator), True)[1]
        )
        fetcher.fetch_point("rsync://continental/repo/")
        assert int(seen[0].origin_asn) == 17054

    def test_fetch_outcomes_are_returned_and_counted(self):
        _, _, _, fetcher = self.setup_world(metrics=MetricsRegistry())
        results = [
            fetcher.fetch_point("rsync://continental/repo/"),
            fetcher.fetch_point("rsync://ghost/repo/"),
        ]
        assert [r.status for r in results] == [
            FetchStatus.OK,
            FetchStatus.UNKNOWN_HOST,
        ]
        fetches = fetcher.metrics.get("repro_fetch_total")
        assert fetches.value(status="ok") == 1
        assert fetches.value(status="unknown-host") == 1

    def test_a_current_serial_is_answered_not_modified(self):
        _, point, _, fetcher = self.setup_world(metrics=MetricsRegistry())
        uri = "rsync://continental/repo/"
        first = fetcher.fetch_point(uri)
        assert first.serial == point.serial and not first.unchanged
        delivered = fetcher.metrics.get("repro_fetch_bytes_total").value()
        again = fetcher.fetch_point(uri, serial=first.serial)
        assert again.ok and again.unchanged and again.files == {}
        assert fetcher.metrics.get("repro_fetch_bytes_total").value() == (
            delivered)
        assert fetcher.metrics.get("repro_fetch_total").value(status="ok") == 2
        point.put("a.roa", b"roa-bytes")        # the same bytes: same serial
        assert fetcher.fetch_point(uri, serial=first.serial).unchanged
        point.put("a.roa", b"roa-bytes-v2")
        changed = fetcher.fetch_point(uri, serial=first.serial)
        assert not changed.unchanged
        assert changed.files["a.roa"] == b"roa-bytes-v2"

    def test_a_remounted_point_is_never_not_modified(self):
        """The serial names the point object: a new point at the same URI,
        same files and same revision count, is fetched in full."""
        registry, point, _, fetcher = self.setup_world()
        uri = "rsync://continental/repo/"
        serial = fetcher.fetch_point(uri).serial
        server = registry.by_host("continental")
        del server._points["repo"]
        remounted = server.mount(uri)
        for name in point.names():
            remounted.put(name, point.get(name))
        assert remounted.serial[1] == point.serial[1]
        result = fetcher.fetch_point(uri, serial=serial)
        assert not result.unchanged
        assert result.files == point.snapshot()
        assert result.serial == remounted.serial != serial

    def test_each_uri_is_parsed_once(self, monkeypatch):
        _, _, _, fetcher = self.setup_world()
        parses, parse = [], RsyncUri.parse.__func__
        monkeypatch.setattr(RsyncUri, "parse", classmethod(
            lambda cls, text: (parses.append(text), parse(cls, text))[1]))
        for _ in range(3):
            fetcher.fetch_point("rsync://continental/repo/")
        assert parses == ["rsync://continental/repo/"]

    def test_long_lived_fetcher_retains_no_results(self):
        """A fetcher lives as long as its relying party; every result it
        kept would pin that refresh's manifest and CRL bytes for good."""
        world = build_figure2()
        metrics = MetricsRegistry()
        fetcher = Fetcher(world.registry, world.clock, metrics=metrics)
        rp = RelyingParty(world.trust_anchors, fetcher, metrics=metrics)
        handed_out = []
        fetch_point = fetcher.fetch_point

        def tracked(uri, **kwargs):
            result = fetch_point(uri, **kwargs)
            handed_out.append(weakref.ref(result))
            return result

        fetcher.fetch_point = tracked
        points = len(rp.refresh().fetches)
        for _ in range(100):
            world.clock.advance(HOUR)
            rp.refresh()
        gc.collect()
        assert len(handed_out) == 101 * points
        assert sum(ref() is not None for ref in handed_out) <= points
        assert metrics.get("repro_fetch_total").value(status="ok") == len(
            handed_out)


class TestFaults:
    def make_fetcher(self, faults):
        registry = RepositoryRegistry()
        server = registry.create_server(
            "continental", HostLocator.parse("63.174.23.0", 17054)
        )
        point = server.mount("rsync://continental/repo/")
        point.put("a.roa", b"roa-bytes-roa-bytes")
        point.put("b.cer", b"cer-bytes-cer-bytes")
        return Fetcher(registry, Clock(), faults=faults)

    def test_drop_is_one_shot(self):
        faults = FaultInjector()
        faults.schedule(FaultKind.DROP, "rsync://continental/repo/",
                        file_name="a.roa")
        fetcher = self.make_fetcher(faults)
        first = fetcher.fetch_point("rsync://continental/repo/")
        assert "a.roa" not in first.files and "b.cer" in first.files
        second = fetcher.fetch_point("rsync://continental/repo/")
        assert "a.roa" in second.files  # transient fault healed

    def test_corrupt_changes_bytes(self):
        faults = FaultInjector(seed=3)
        faults.schedule(FaultKind.CORRUPT, "rsync://continental/repo/",
                        file_name="a.roa")
        fetcher = self.make_fetcher(faults)
        result = fetcher.fetch_point("rsync://continental/repo/")
        assert result.files["a.roa"] != b"roa-bytes-roa-bytes"
        assert result.files["b.cer"] == b"cer-bytes-cer-bytes"

    def test_truncate(self):
        faults = FaultInjector()
        faults.schedule(FaultKind.TRUNCATE, "rsync://continental/repo/",
                        file_name="b.cer")
        fetcher = self.make_fetcher(faults)
        result = fetcher.fetch_point("rsync://continental/repo/")
        assert result.files["b.cer"] == b"cer-bytes"

    def test_point_unreachable_fault(self):
        faults = FaultInjector()
        faults.schedule(FaultKind.UNREACHABLE, "rsync://continental/repo/")
        fetcher = self.make_fetcher(faults)
        assert fetcher.fetch_point("rsync://continental/repo/").status is (
            FetchStatus.FAULTED
        )
        assert fetcher.fetch_point("rsync://continental/repo/").ok

    def test_background_rate_deterministic(self):
        results = []
        for _ in range(2):
            faults = FaultInjector(seed=9, background_rate=0.5)
            fetcher = self.make_fetcher(faults)
            result = fetcher.fetch_point("rsync://continental/repo/")
            results.append(sorted(result.files))
        assert results[0] == results[1]

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(background_rate=1.5)

    def test_applied_log(self):
        faults = FaultInjector()
        faults.schedule(FaultKind.DROP, "rsync://continental/repo/",
                        file_name="a.roa")
        fetcher = self.make_fetcher(faults)
        fetcher.fetch_point("rsync://continental/repo/")
        assert list(faults.applied) == [
            ("rsync://continental/repo/", "a.roa", FaultKind.DROP)
        ]
        assert faults.applied_dropped == 0


class TestByzantineFaults:
    """The misbehaving-authority kinds: whole-point rewrites."""

    URI = "rsync://continental/repo/"

    def make_world(self):
        registry = RepositoryRegistry()
        server = registry.create_server(
            "continental", HostLocator.parse("63.174.23.0", 17054)
        )
        point = server.mount(self.URI)
        point.put("ca.crl", b"crl-v1")
        point.put("ca.mft", b"mft-v1")
        point.put("a.roa", b"roa-a-v1")
        point.put("b.roa", b"roa-b-v1")
        point.checkpoint()
        return registry, point

    def fetcher(self, registry, faults, identity=""):
        return Fetcher(registry, Clock(), faults=faults, identity=identity)

    def test_byzantine_kinds_are_point_level(self):
        faults = FaultInjector()
        for kind in BYZANTINE_KINDS:
            with pytest.raises(ValueError):
                faults.schedule(kind, self.URI, file_name="a.roa")

    def test_split_view_serves_different_objects_per_identity(self):
        registry, _ = self.make_world()
        views = {}
        for identity in ("rp-alpha", "rp-gamma"):
            faults = FaultInjector(seed=5)
            faults.schedule(FaultKind.SPLIT_VIEW, self.URI, count=PERSISTENT)
            result = self.fetcher(registry, faults, identity).fetch_point(
                self.URI
            )
            views[identity] = result.files
        # Both vantages keep the special files but see disjoint halves of
        # the payload objects; together they cover everything.
        for files in views.values():
            assert "ca.crl" in files and "ca.mft" in files
        roas = [
            {n for n in files if n.endswith(".roa")}
            for files in views.values()
        ]
        assert roas[0] != roas[1]
        assert roas[0] | roas[1] == {"a.roa", "b.roa"}
        assert roas[0].isdisjoint(roas[1])

    def test_split_view_is_stable_per_identity(self):
        registry, _ = self.make_world()
        seen = []
        for _ in range(2):
            faults = FaultInjector(seed=5)
            faults.schedule(FaultKind.SPLIT_VIEW, self.URI, count=PERSISTENT)
            result = self.fetcher(registry, faults, "rp-alpha").fetch_point(
                self.URI
            )
            seen.append(sorted(result.files))
        assert seen[0] == seen[1]

    def test_manifest_replay_serves_previous_checkpoint(self):
        registry, point = self.make_world()
        point.put("ca.mft", b"mft-v2")
        point.put("c.roa", b"roa-c-v2")
        point.checkpoint()
        faults = FaultInjector()
        faults.schedule(FaultKind.MANIFEST_REPLAY, self.URI)
        result = self.fetcher(registry, faults).fetch_point(self.URI)
        # The stale-but-signed past: c.roa hidden, old manifest back.
        assert "c.roa" not in result.files
        assert result.files["ca.mft"] == b"mft-v1"
        healed = self.fetcher(registry, FaultInjector()).fetch_point(self.URI)
        assert "c.roa" in healed.files

    def test_manifest_replay_without_history_is_noop(self):
        registry = RepositoryRegistry()
        server = registry.create_server(
            "continental", HostLocator.parse("63.174.23.0", 17054)
        )
        point = server.mount(self.URI)
        point.put("a.roa", b"roa-a-v1")
        faults = FaultInjector()
        faults.schedule(FaultKind.MANIFEST_REPLAY, self.URI)
        result = self.fetcher(registry, faults).fetch_point(self.URI)
        assert result.files == {"a.roa": b"roa-a-v1"}

    def test_stale_crl_substitutes_only_the_crl(self):
        registry, point = self.make_world()
        point.put("ca.crl", b"crl-v2")
        point.put("ca.mft", b"mft-v2")
        point.checkpoint()
        faults = FaultInjector()
        faults.schedule(FaultKind.STALE_CRL, self.URI)
        result = self.fetcher(registry, faults).fetch_point(self.URI)
        assert result.files["ca.crl"] == b"crl-v1"      # rolled back
        assert result.files["ca.mft"] == b"mft-v2"      # everything else fresh

    def test_key_swap_exchanges_two_objects(self):
        registry, _ = self.make_world()
        faults = FaultInjector()
        faults.schedule(FaultKind.KEY_SWAP, self.URI)
        result = self.fetcher(registry, faults).fetch_point(self.URI)
        assert result.files["a.roa"] == b"roa-b-v1"
        assert result.files["b.roa"] == b"roa-a-v1"
        assert result.files["ca.crl"] == b"crl-v1"

    def test_oversized_replaces_file_with_nested_bomb(self):
        registry, _ = self.make_world()
        faults = FaultInjector()
        faults.schedule(FaultKind.OVERSIZED, self.URI, file_name="a.roa")
        result = self.fetcher(registry, faults).fetch_point(self.URI)
        bomb = result.files["a.roa"]
        assert bomb == nested_bomb()
        assert len(bomb) > 16 << 10        # past the parse-memo size guard
        assert result.files["b.roa"] == b"roa-b-v1"

    def test_applied_log_is_bounded(self, monkeypatch):
        monkeypatch.setattr(faults_module, "APPLIED_LIMIT", 3)
        faults = FaultInjector()
        faults.schedule(
            FaultKind.DROP, self.URI, file_name="a.roa", count=PERSISTENT
        )
        registry, _ = self.make_world()
        fetcher = self.fetcher(registry, faults)
        for _ in range(5):
            fetcher.fetch_point(self.URI)
        assert len(faults.applied) == 3
        assert faults.applied_dropped == 2
        assert faults.applied[-1] == (self.URI, "a.roa", FaultKind.DROP)


class TestLocalCache:
    def result(self, status=FetchStatus.OK, files=None, at=0):
        from repro.repository import FetchResult

        return FetchResult(
            uri="rsync://x/repo/", status=status, files=files or {}, fetched_at=at
        )

    def test_success_replaces_contents(self):
        cache = LocalCache()
        cache.update(self.result(files={"a": b"1"}, at=1))
        cache.update(self.result(files={"b": b"2"}, at=2))
        entry = cache.point("rsync://x/repo/")
        assert entry.files == {"b": b"2"}
        assert entry.last_success == 2
        assert not entry.stale

    def test_keep_stale_preserves_old_copy(self):
        cache = LocalCache(keep_stale=True)
        cache.update(self.result(files={"a": b"1"}, at=1))
        cache.update(self.result(status=FetchStatus.UNREACHABLE, at=5))
        entry = cache.point("rsync://x/repo/")
        assert entry.files == {"a": b"1"}  # stale copy retained
        assert entry.stale
        assert entry.last_attempt == 5 and entry.last_success == 1

    def test_drop_stale_policy(self):
        cache = LocalCache(keep_stale=False)
        cache.update(self.result(files={"a": b"1"}, at=1))
        cache.update(self.result(status=FetchStatus.UNREACHABLE, at=5))
        assert cache.point("rsync://x/repo/").files == {}

    def test_all_files_and_len(self):
        cache = LocalCache()
        cache.update(self.result(files={"a": b"1"}))
        assert all_files(cache) == {"rsync://x/repo/": {"a": b"1"}}
        assert len(cache) == 1
        assert "rsync://x/repo/" in cache

