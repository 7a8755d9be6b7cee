"""Tests for cache-to-cache chaining and the fan-out tree."""

import random

import pytest

from repro.resources import PrefixMap
from repro.rp import VRP, VrpSet
from repro.rtr import (
    CacheChain,
    ChainedRtrCache,
    DuplexPipe,
    RouterState,
    RtrCacheServer,
    RtrRouterClient,
    encode_prefixes,
)
from repro.telemetry import MetricsRegistry


def vrps(*specs):
    return VrpSet(VRP.parse(text, asn) for text, asn in specs)


BASE = [("10.0.0.0/8", 64500), ("192.0.2.0/24-28", 64501)]


def recorded(announced, withdrawn):
    """What a cache's history holds for one serial's delta: its prefix
    PDU count and their wire bytes, withdrawals first."""
    return len(announced) + len(withdrawn), (
        encode_prefixes(False, withdrawn) + encode_prefixes(True, announced))


def make_root(initial=BASE):
    root = RtrCacheServer(metrics=MetricsRegistry())
    if initial:
        root.update(vrps(*initial))
    return root


class TestChainedCache:
    def test_single_link_propagates(self):
        root = make_root()
        link = ChainedRtrCache(root)
        for _ in range(4):
            root.process()
            link.pump()
        assert link.current_vrps() == root.current_vrps()

    def test_delta_propagates_without_reset(self):
        root = make_root()
        link = ChainedRtrCache(root)
        for _ in range(4):
            root.process()
            link.pump()
        root.update(vrps(*BASE, ("198.51.100.0/24", 64502)))
        for _ in range(4):
            root.process()
            link.pump()
        assert link.current_vrps() == root.current_vrps()
        # Content propagated, but the serial space is the link's own.
        assert link.server.serial == 2

    def test_idle_pump_is_a_no_op(self):
        root = make_root()
        link = ChainedRtrCache(root)
        for _ in range(4):
            root.process()
            link.pump()
        serial = link.server.serial
        for _ in range(5):
            root.process()
            link.pump()
        assert link.server.serial == serial

    def test_severed_upstream_heals_by_reconnect(self):
        root = make_root()
        link = ChainedRtrCache(root)
        for _ in range(4):
            root.process()
            link.pump()
        link.pipe.close()
        root.update(vrps(*BASE, ("203.0.113.0/24", 64503)))
        for _ in range(6):
            root.process()
            link.pump()
        assert link.client.state is RouterState.SYNCED
        assert link.current_vrps() == root.current_vrps()
        assert root.metrics.get(
            "repro_rtr_chain_reconnects_total").value() >= 1


class TestCacheChain:
    def test_tree_shape(self):
        root = make_root()
        chain = CacheChain(root, tiers=2, fanout=3)
        assert len(chain.tier(0)) == 3
        assert len(chain.tier(1)) == 9
        assert len(chain.caches()) == 12
        assert chain.deepest() == chain.tier(1)
        assert root.session_count == 3  # the root only carries tier 0

    def test_pump_converges_every_tier(self):
        root = make_root()
        chain = CacheChain(root, tiers=2, fanout=2)
        chain.pump()
        assert chain.divergent() == []
        for cache in chain.caches():
            assert cache.current_vrps() == root.current_vrps()

    def test_update_reaches_the_deepest_tier(self):
        root = make_root()
        chain = CacheChain(root, tiers=3, fanout=1)
        chain.pump()
        root.update(vrps(*BASE, ("198.51.100.0/24", 64502)))
        chain.pump()
        assert chain.divergent() == []

    def test_routers_on_the_edge_see_the_rp_set(self):
        root = make_root()
        chain = CacheChain(root, tiers=1, fanout=2)
        chain.pump()
        routers = []
        for cache in chain.deepest():
            pipe = DuplexPipe()
            cache.server.attach(pipe)
            client = RtrRouterClient(pipe)
            client.connect()
            routers.append((cache, client))
        for _ in range(3):
            for cache, client in routers:
                cache.server.process()
                client.process()
        for _cache, client in routers:
            assert client.state is RouterState.SYNCED
            assert client.vrp_set().as_frozenset() == root.current_vrps()

    def test_bad_shape_rejected(self):
        root = make_root()
        with pytest.raises(ValueError):
            CacheChain(root, tiers=0)
        with pytest.raises(ValueError):
            CacheChain(root, tiers=1, fanout=0)


X = VRP.parse("198.51.100.0/24", 64502)
Y = VRP.parse("203.0.113.0/24", 64503)


def settle(root, link, rounds=4):
    for _ in range(rounds):
        root.process()
        link.pump()


def synced_link(root):
    link = ChainedRtrCache(root)
    settle(root, link)
    assert link.current_vrps() == root.current_vrps()
    return link


def random_vrp(rng):
    length = rng.choice((16, 20, 24))
    network = rng.randrange(1 << length) << (32 - length)
    octets = ".".join(str((network >> s) & 255) for s in (24, 16, 8, 0))
    return VRP.parse(f"{octets}/{length}-{rng.randint(length, 28)}",
                     rng.randint(64500, 64520))


def snapshot_pdus(server):
    """The snapshot burst without its End of Data serial (the last 4
    bytes): serial spaces differ between caches, content must not."""
    burst, count = server._snapshot_burst()
    return burst[:-4], count


class TestDeltaForwarding:
    @pytest.mark.parametrize("seed", [1, 7, 2013])
    def test_random_updates_keep_every_tier_equal_to_the_root(self, seed):
        rng = random.Random(seed)
        root = make_root()
        chain = CacheChain(root, tiers=2, fanout=2)
        chain.pump()
        table = set(root.current_vrps())
        for _step in range(40):
            # One to three root serials per pump: bursts span serials.
            for _ in range(rng.randint(1, 3)):
                gone = set(rng.sample(sorted(table), min(len(table),
                                                         rng.randint(0, 3))))
                new = {random_vrp(rng) for _ in range(rng.randint(0, 4))}
                table = (table - gone) | new
                if rng.random() < 0.5:
                    root.update(VrpSet(table))
                else:
                    root.apply_delta(new, gone - new)
            chain.pump()
            assert root.current_vrps() == table
            for cache in chain.caches():
                assert cache.current_vrps() == table
                assert cache.client.vrp_count == len(table)

    def test_delta_built_snapshot_is_byte_identical_to_a_fresh_one(self):
        rng = random.Random(5)
        server = RtrCacheServer(metrics=MetricsRegistry())
        for _ in range(60):
            served = sorted(server.current_vrps())
            server.apply_delta(
                [random_vrp(rng) for _ in range(rng.randint(0, 5))],
                rng.sample(served, min(len(served), rng.randint(0, 3))),
            )
        fresh = RtrCacheServer(metrics=MetricsRegistry())
        fresh.update(VrpSet(server.current_vrps()))
        assert server.vrp_count > 20
        assert snapshot_pdus(server) == snapshot_pdus(fresh)

    def test_announce_then_withdraw_in_one_burst_nets_to_nothing(self):
        root = make_root()
        link = synced_link(root)
        serial = link.server.serial
        root.apply_delta([X], [])
        root.apply_delta([], [X])        # two root serials, one burst
        settle(root, link)
        assert link.client.serial == root.serial == 3
        assert link.server.serial == serial
        assert link.current_vrps() == root.current_vrps()

    def test_multi_serial_burst_records_only_the_net_effect(self):
        root = make_root()
        link = synced_link(root)
        serial = link.server.serial
        present = VRP.parse(*BASE[0])
        root.apply_delta([X, Y], [present])
        root.apply_delta([present], [X])  # withdraw-then-announce, and X dies
        settle(root, link)
        assert link.server.serial == serial + 1
        assert link.server._history[serial + 1] == recorded([Y], [])
        assert link.current_vrps() == root.current_vrps()

    def test_two_bursts_in_one_process_are_both_forwarded(self):
        root = make_root()
        link = synced_link(root)
        serial = link.server.serial
        root.apply_delta([X], [])
        link.client.process()            # Serial Notify -> Serial Query
        root.process()                   # burst A: X
        root.apply_delta([Y], [])
        link.client.poll()               # a timer poll, still from serial 1
        root.process()                   # burst B: X again, and Y
        link.pump()                      # one process() sees both bursts
        assert link.server.serial == serial + 2
        first, second = (link.server._history[serial + n] for n in (1, 2))
        assert first == recorded([X], [])
        assert second == recorded([Y], [])
        settle(root, link)
        assert link.server.serial == serial + 2
        assert link.current_vrps() == root.current_vrps()

    def test_reconnect_with_unchanged_content_bumps_no_serial(self):
        root = make_root()
        link = synced_link(root)
        serial = link.server.serial
        link.pipe.close()
        settle(root, link, rounds=6)
        assert root.metrics.get(
            "repro_rtr_chain_reconnects_total").value() == 1
        assert link.client.state is RouterState.SYNCED
        assert link.server.serial == serial
        assert link.current_vrps() == root.current_vrps()

    def test_reconnect_forwards_only_what_changed_meanwhile(self):
        root = make_root()
        link = synced_link(root)
        serial = link.server.serial
        link.pipe.close()
        root.apply_delta([X], [VRP.parse(*BASE[0])])
        settle(root, link, rounds=6)
        assert link.server.serial == serial + 1
        assert link.server._history[serial + 1] == recorded(
            [X], [VRP.parse(*BASE[0])])
        assert link.current_vrps() == root.current_vrps()

    def test_cache_reset_with_unchanged_content_bumps_no_serial(self):
        root = RtrCacheServer(history_window=2, metrics=MetricsRegistry())
        root.update(vrps(*BASE))
        link = synced_link(root)
        serial = link.server.serial
        # The link sleeps through more serials than the window keeps,
        # and the table comes back to what the link already serves.
        for vrp in (X, Y):
            root.apply_delta([vrp], [])
        for vrp in (X, Y):
            root.apply_delta([], [vrp])
        resets = root.metrics.get("repro_rtr_cache_resets_total")
        before = resets.value(reason="compacted")
        settle(root, link, rounds=6)
        assert resets.value(reason="compacted") == before + 1
        assert link.client.serial == root.serial
        assert link.server.serial == serial
        assert link.current_vrps() == root.current_vrps()

    def test_cache_reset_resyncs_changed_content_in_one_serial(self):
        root = RtrCacheServer(history_window=2, metrics=MetricsRegistry())
        root.update(vrps(*BASE))
        chain = CacheChain(root, tiers=2, fanout=2)
        chain.pump()
        serials = [cache.server.serial for cache in chain.caches()]
        for vrp in (X, Y, VRP.parse("100.64.0.0/10", 64504)):
            root.apply_delta([vrp], [])
        root.apply_delta([], [VRP.parse(*BASE[1])])
        chain.pump()
        assert root.metrics.get("repro_rtr_cache_resets_total").value(
            reason="compacted") == 2     # tier 0 only; tier 1 gets a delta
        assert chain.divergent() == []
        for cache, was in zip(chain.caches(), serials):
            assert cache.current_vrps() == root.current_vrps()
            assert cache.server.serial == was + 1

    def test_edge_router_without_a_hook_accumulates_nothing(self):
        root = make_root()
        pipe = DuplexPipe()
        root.attach(pipe)
        router = RtrRouterClient(pipe)
        router.connect()
        for vrp in (X, Y):
            root.process()
            router.process()
            root.apply_delta([vrp], [])
        for _ in range(3):
            root.process()
            router.process()
        assert router.vrp_set().as_frozenset() == root.current_vrps()
        assert router._pending == []

    def test_one_vrp_delta_builds_no_vrpset_and_walks_no_trie(
        self, monkeypatch
    ):
        rng = random.Random(3)
        root = make_root()
        root.apply_delta({random_vrp(rng) for _ in range(200)}, [])
        chain = CacheChain(root, tiers=2, fanout=2)
        chain.pump()
        target = VrpSet(root.current_vrps() | {X})
        calls = {"vrpset": 0, "trie": 0}
        build, walk = VrpSet.__init__, PrefixMap.get_or_insert

        def counted_build(self, *args, **kwargs):
            calls["vrpset"] += 1
            build(self, *args, **kwargs)

        def counted_walk(self, *args, **kwargs):
            calls["trie"] += 1
            return walk(self, *args, **kwargs)

        monkeypatch.setattr(VrpSet, "__init__", counted_build)
        monkeypatch.setattr(PrefixMap, "get_or_insert", counted_walk)
        root.update(target)
        chain.pump()
        monkeypatch.undo()
        assert chain.divergent() == []
        assert X in chain.deepest()[0].current_vrps()
        assert calls == {"vrpset": 0, "trie": 0}
