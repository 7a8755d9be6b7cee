"""What an RTR table holds: the wire's plain tuples, never a ``VRP``.

A router's table and a chained cache's served set hold each VRP as the
exact tuple ``(bits, network, length, maxLength, asn)`` the decoder
builds.  The cyclic collector untracks a tuple of ints and bytes at its
first pass; an instance of ``VRP``, a tuple subclass, it never untracks,
so a table of them is walked by every older-generation pass for as long
as it is held.  ``VRP`` stays the type a caller reads: ``vrp_set()``
builds them, and a ``VRP`` equals and hashes as its plain tuple, so the
sets of two tiers compare equal whichever type each holds.
"""

import gc

import pytest

from repro.resources import ASN, Afi, Prefix
from repro.rp import VRP, VrpSet
from repro.rtr import (
    CacheChain,
    CacheResponse,
    DuplexPipe,
    EndOfData,
    RouterState,
    RtrCacheServer,
    RtrRouterClient,
    encode_pdu,
    encode_prefixes,
)
from repro.telemetry import MetricsRegistry


def table(count):
    """*count* VRPs, about a third of them IPv6, sorted as RTR serves."""
    vrps = []
    for i in range(count):
        if i % 3 == 2:
            prefix = Prefix(Afi.IPV6, (0x2001_0DB8 << 96) | (i << 72), 56)
            vrps.append(VRP(prefix, 64, ASN(64500 + i % 7)))
        else:
            prefix = Prefix(Afi.IPV4, (10 << 24) | (i << 8), 24)
            vrps.append(VRP(prefix, 24, ASN(64500 + i % 7)))
    return sorted(vrps)


def live_vrps():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is VRP)


def synced_router(vrps):
    """A router that has read a reset burst of *vrps* off the wire."""
    router = RtrRouterClient(DuplexPipe())
    router.connect()
    router.pipe.to_router.send(
        encode_pdu(CacheResponse(1)) + encode_prefixes(True, vrps)
        + encode_pdu(EndOfData(1, 1)))
    router.process()
    assert router.state is RouterState.SYNCED
    return router


def served_chain(vrps):
    root = RtrCacheServer(metrics=MetricsRegistry())
    root.update(VrpSet(vrps))
    chain = CacheChain(root, tiers=2, fanout=1)
    chain.pump()
    return root, chain


def test_a_router_full_sync_leaves_no_new_vrp_alive():
    tables = {count: table(count) for count in (500, 2_000)}
    before = live_vrps()
    routers = []
    for count, vrps in tables.items():
        routers.append(synced_router(vrps))
        assert routers[-1].vrp_count == count
        assert live_vrps() == before, count


def test_a_chained_cache_holds_no_vrp_of_its_own():
    vrps = table(500)
    root, chain = served_chain(vrps)
    before = live_vrps()
    # A withdrawal and a re-announcement down the chain, and a snapshot
    # of every tier: nothing they install or settle is a VRP.
    for announced, withdrawn in (((), vrps[::5]), (vrps[::5], ())):
        root.apply_delta(announced, withdrawn)
        chain.pump()
    for cache in chain.caches():
        cache.server._snapshot_burst()
    assert chain.divergent() == []
    assert live_vrps() == before


def test_tables_and_served_sets_are_left_untracked():
    vrps = table(500)
    router = synced_router(vrps)
    _root, chain = served_chain(vrps)
    gc.collect()
    for held in (router._vrps, *(c.current_vrps() for c in chain.caches())):
        assert len(held) == 500
        assert not any(map(gc.is_tracked, held))


class TestContract:
    def test_vrp_set_yields_vrps(self):
        vrps = table(300)
        router = synced_router(vrps)
        table_ = router.vrp_set()
        assert all(type(vrp) is VRP for vrp in table_)
        assert list(table_) == vrps
        assert {str(vrp.prefix) for vrp in table_} == {
            str(vrp.prefix) for vrp in vrps}

    @pytest.mark.parametrize("text", ["63.160.0.0/12-13", "2001:db8::/32-48"])
    def test_a_vrp_is_its_plain_tuple(self, text):
        vrp = VRP.parse(text, 1239)
        plain = tuple(vrp)
        assert type(plain) is tuple and vrp == plain and plain == vrp
        assert hash(vrp) == hash(plain)
        assert {vrp} == {plain} and frozenset([plain]) == frozenset([vrp])
        assert not (vrp < plain or plain < vrp)
        network = plain[1]
        if vrp.prefix.afi is Afi.IPV6:
            assert type(network) is bytes and len(network) == 16
        else:
            assert type(network) is int

    def test_a_chained_cache_serves_the_roots_set(self):
        vrps = table(600)
        root, chain = served_chain(vrps)
        truth = root.current_vrps()
        assert all(type(vrp) is VRP for vrp in truth)
        for cache in chain.caches():
            served = cache.current_vrps()
            assert served == truth and hash(served) == hash(truth)
            assert all(type(record) is tuple for record in served)
            # The snapshot each tier serves is the root's, byte for byte
            # between the Cache Response and End of Data.
            assert (cache.server._snapshot_burst()[0][8:-12]
                    == root._snapshot_burst()[0][8:-12])
