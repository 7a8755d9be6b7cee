"""Integers an authority chooses must not let it choose their hashes.

CPython hashes an ``int`` modulo ``2**61 - 1``.  An IPv6 network or a
certificate serial is wider than that and is picked by whoever signs the
object, so ``base + i * (2**61 - 1)`` for ``i`` in 0..n is n validly
signed values with *one* hash — a quadratic build of every set and
dictionary they land in: the relying party's VRP index, its RTR cache
and every router behind it (through a ROA), and any set of revoked
serials (through a CRL: the monitor's diff and Suspenders' corroboration
read the ascending serials by bisection instead).

Ratios are against an honest input of the same size, best of three
(a whole bring-up, refresh to router, is timed once per side, over a
collected and frozen heap), with a bound an order of magnitude below
what the flood used to cost (57x for 4,000 prefixes, three orders for
16,000 serials).
"""

import gc
import sys
import time

import pytest

from repro.crypto import KeyFactory
from repro.monitor import AlertKind, analyze, diff_snapshots, take_snapshot
from repro.repository import Fetcher, HostLocator, RepositoryRegistry
from repro.resources import ASN, Afi, Prefix, PrefixMap, ResourceSet
from repro.rp import RelyingParty, SuspendersRelyingParty
from repro.rp.vrp import VRP, VrpSet
from repro.rpki import (
    CRL_FILE,
    CertificateAuthority,
    RoaPrefix,
    parse_object,
)
from repro.rtr import DuplexPipe, RtrCacheServer, RtrRouterClient
from repro.simtime import HOUR, Clock
from repro.telemetry import MetricsRegistry

from .rpki.forge import publish_forged, reforge
from .rpki.reference_build import build_crl

MODULUS = sys.hash_info.modulus                      # 2**61 - 1 on CPython
HOLDING = Prefix.parse("2001:db8:1::/48")            # any /48 holder will do
ORIGIN = ASN(64_500)


def congruent_hosts(count):
    """*count* /128s inside HOLDING whose networks are equal mod MODULUS."""
    hosts = [Prefix(Afi.IPV6, HOLDING.network + i * MODULUS, 128)
             for i in range(count)]
    assert all(HOLDING.covers(host) for host in hosts)
    assert len({host.network % MODULUS for host in hosts}) == 1
    return hosts


def honest_hosts(count):
    # Every other address: adjacent hosts would merge into one range of
    # the EE certificate's resources, and the two inputs differ in shape.
    return [Prefix(Afi.IPV6, HOLDING.network + 2 * i, 128)
            for i in range(count)]


def best_of_three(work):
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - started)
    return best


def inverted_tuple_hash_hosts(count):
    """/128s inside HOLDING whose 60-bit limbs, hashed as a tuple, collide.

    The defence one might reach for first — cut the network into limbs
    that each hash as themselves and hash the tuple — is no defence:
    CPython's tuple hash is an unkeyed xxHash round per item, and every
    step of it can be run backwards.  Fix the top two limbs, solve for
    the lowest; one candidate in sixteen fits 60 bits.
    """
    mask64, limb = (1 << 64) - 1, (1 << 60) - 1
    p1, p2, p5 = (11400714785074694791, 14029467366897019727,
                  2870177450012600261)
    p1_inv, p2_inv = pow(p1, -1, 1 << 64), pow(p2, -1, 1 << 64)

    def unround(acc):
        acc = (acc * p1_inv) & mask64
        return ((acc >> 31) | (acc << 33)) & mask64

    top, middle = HOLDING.network >> 120, (HOLDING.network >> 60) & limb
    target = hash((0, middle, top)) & mask64
    triples = []
    while len(triples) < count:
        middle += 1
        acc = (target - (3 ^ p5 ^ 3527539)) & mask64
        for lane in (top, middle):
            acc = (unround(acc) - lane * p2) & mask64
        lowest = ((unround(acc) - p5) * p2_inv) & mask64
        if lowest <= limb:
            triples.append((lowest, middle, top))
    if len({hash(triple) for triple in triples}) != 1:
        pytest.skip("this interpreter's tuple hash is not CPython 3.8+'s")
    hosts = [Prefix(Afi.IPV6, (c << 120) | (b << 60) | a, 128)
             for a, b, c in triples]
    assert all(HOLDING.covers(host) for host in hosts)
    return hosts


class TestPrefixes:
    def test_congruent_networks_hash_apart(self):
        hosts = congruent_hosts(4_000)
        assert len({hash(host) for host in hosts}) >= 3_990

    def test_networks_aimed_at_a_limb_tuple_hash_apart(self):
        hosts = inverted_tuple_hash_hosts(200)
        assert len({hash(host) for host in hosts}) >= 199

    def test_ipv4_hash_is_the_plain_tuple(self):
        # IPv4 networks hash as themselves already; fleet-sync hashes
        # 20,000 of them per snapshot and pays for nothing new.
        prefix = Prefix.parse("63.174.16.0/20")
        assert hash(prefix) == hash((32, prefix.network, 20))

    @pytest.mark.parametrize("hostile", [
        congruent_hosts, inverted_tuple_hash_hosts])
    def test_vrp_set_builds_as_fast_as_an_honest_one(self, hostile):
        honest = [VRP(host, 128, ORIGIN) for host in honest_hosts(4_000)]
        flood = [VRP(host, 128, ORIGIN) for host in hostile(4_000)]
        assert best_of_three(lambda: VrpSet(flood)) < 5 * best_of_three(
            lambda: VrpSet(honest))
        table = VrpSet(flood)
        assert len(table) == 4_000
        assert list(table.covering(flood[-1].prefix)) == [flood[-1]]

    def test_the_index_keys_hash_apart(self):
        # The index probes by a prefix's significant bits, not by the
        # Prefix: those must not be aimable either.
        index = PrefixMap()
        for host in congruent_hosts(4_000):
            index.insert(host, None)
        (table,) = index._tables[Afi.IPV6.bits].values()
        assert len({hash(key) for key in table}) >= 3_990


def as_vrps(hosts):
    return [VRP(host, 128, ORIGIN) for host in hosts]


def sync_a_router(vrps):
    """A cache installs *vrps* as one delta; a router takes the burst."""
    cache = RtrCacheServer(metrics=MetricsRegistry())
    pipe = DuplexPipe()
    cache.attach(pipe)
    router = RtrRouterClient(pipe)
    router.connect()
    installing = time.perf_counter()
    cache.apply_delta(vrps, ())
    cache.process()
    applying = time.perf_counter()
    router.process()
    done = time.perf_counter()
    assert router.vrp_count == cache.vrp_count == len(vrps)
    return installing, applying, done


class TestVrps:
    """A VRP is the tuple of its five fields and hashes as one: the
    network in it must not be an ``int`` its authority picked."""

    HOSTILE = [congruent_hosts, inverted_tuple_hash_hosts]

    @pytest.mark.parametrize("hostile", HOSTILE)
    def test_vrps_hash_apart(self, hostile):
        vrps = as_vrps(hostile(4_000))
        assert len({hash(vrp) for vrp in vrps}) >= 3_990
        # Through the integer constructor (the RTR decoder's) as well.
        wired = [VRP.from_integers(Afi.IPV6, vrp.prefix.network, 128, 128,
                                   int(ORIGIN)) for vrp in vrps]
        assert wired == vrps
        assert len({hash(vrp) for vrp in wired}) >= 3_990

    def test_the_network_in_the_tuple_is_bytes_for_ipv6_and_int_for_ipv4(self):
        low = Prefix(Afi.IPV6, 5, 128)               # below 2**61 - 1 too
        for host in [low, *congruent_hosts(50), *honest_hosts(50)]:
            for vrp in (VRP(host, 128, ORIGIN), VRP.from_integers(
                    Afi.IPV6, host.network, 128, 128, int(ORIGIN))):
                assert type(vrp[1]) is bytes and len(vrp[1]) == 16
                assert vrp[1] == host.network.to_bytes(16, "big")
        narrow = VRP.parse("63.174.16.0/20", ORIGIN)
        assert type(narrow[1]) is int
        assert type(VRP.from_integers(
            Afi.IPV4, narrow[1], 20, 20, 1)[1]) is int

    @pytest.mark.parametrize("hostile", HOSTILE)
    def test_a_set_of_them_builds_at_honest_cost(self, hostile):
        # (A VrpSet of them: TestPrefixes, above.)
        honest, flood = as_vrps(honest_hosts(4_000)), as_vrps(hostile(4_000))
        assert best_of_three(lambda: set(flood)) < 5 * best_of_three(
            lambda: set(honest))
        assert len(set(flood)) == 4_000

    @pytest.mark.parametrize("hostile", HOSTILE)
    def test_cache_install_and_router_apply_at_honest_cost(self, hostile):
        honest, flood = as_vrps(honest_hosts(4_000)), as_vrps(hostile(4_000))

        def best(vrps):
            runs = [sync_a_router(vrps) for _ in range(3)]
            return (min(b - a for a, b, _ in runs),
                    min(c - b for _, b, c in runs))

        (honest_install, honest_apply) = best(honest)
        (flood_install, flood_apply) = best(flood)
        assert flood_install < 5 * honest_install
        assert flood_apply < 5 * honest_apply


def ipv6_world(hosts):
    """A trust anchor, one /48 holder under it, and one ROA over *hosts*."""
    clock = Clock()
    keys = KeyFactory(seed=23)
    registry = RepositoryRegistry()
    root_server = registry.create_server(
        "root.example", HostLocator.parse("192.0.2.1", 64_496))
    holder_server = registry.create_server(
        "holder.example", HostLocator.parse("192.0.2.2", int(ORIGIN)))
    root = CertificateAuthority.create_trust_anchor(
        handle="root", ip_resources=ResourceSet.parse("2001:db8::/32"),
        clock=clock, key_factory=keys, sia="rsync://root.example/repo/",
        publication_point=root_server.mount("rsync://root.example/repo/"),
    )
    holder = root.issue_child_authority(
        "holder", ResourceSet.parse(str(HOLDING)),
        sia="rsync://holder.example/repo/",
        publication_point=holder_server.mount("rsync://holder.example/repo/"),
    )
    root.issue_roa(ORIGIN, "2001:db8:2::/48")
    holder.issue_roa(ORIGIN, [RoaPrefix(host) for host in hosts])
    return clock, registry, root, holder


def bring_up(hosts):
    """Cold refresh of ipv6_world(hosts) into an RTR cache and a router.

    The collector stays on in the timed window, but the heap from before
    it is collected and frozen: a full collection of the rest of the
    test session's objects would otherwise land in a window of ~50 ms at
    random and cost several times the work being timed.
    """
    clock, registry, root, holder = ipv6_world(hosts)
    rp = RelyingParty(
        [root.certificate], Fetcher(registry, clock),
        metrics=MetricsRegistry(),
    )
    cache = RtrCacheServer(metrics=MetricsRegistry())
    pipe = DuplexPipe()
    cache.attach(pipe)
    router = RtrRouterClient(pipe)
    router.connect()
    gc.collect()
    gc.freeze()
    try:
        started = time.perf_counter()
        report = rp.refresh()
        cache.apply_delta(report.announced, report.withdrawn)
        for _ in range(3):
            cache.process()
            router.process()
        elapsed = time.perf_counter() - started
    finally:
        gc.unfreeze()
    return rp, holder, cache, router, report, elapsed


class TestThroughARoa:
    def test_refresh_and_rtr_fan_out_at_honest_cost(self, monkeypatch):
        *_, honest_s = bring_up(honest_hosts(4_000))
        rp, holder, cache, router, report, flood_s = bring_up(
            congruent_hosts(4_000))
        assert report.run.errors() == []
        assert len(rp.vrps) == 4_001
        assert router.vrp_set().as_frozenset() == cache.current_vrps() \
            == rp.vrps.as_frozenset()
        assert flood_s < 5 * honest_s

        # Idle and one-ROA refreshes after it stay O(delta).
        edits = []

        def recorded(inner):
            def edit(self, prefix, *rest):
                edits.append(prefix)
                return inner(self, prefix, *rest)
            return edit

        for name in ("get_or_insert", "remove"):
            monkeypatch.setattr(
                PrefixMap, name, recorded(getattr(PrefixMap, name)))
        idle = rp.refresh()
        assert (idle.announced, idle.withdrawn, edits) == ((), (), [])
        holder.issue_roa(ORIGIN, "2001:db8:1:ffff::/64")
        issued = rp.refresh()
        assert issued.announced == (
            VRP.parse("2001:db8:1:ffff::/64", ORIGIN),)
        assert edits == [Prefix.parse("2001:db8:1:ffff::/64")]


SERIALS = 16_000
# Lists, not sets: a set of FLOOD is the very thing that takes seconds.
FLOOD = [7 + i * MODULUS for i in range(SERIALS)]
HONEST = list(range(7, 7 + SERIALS))


def crl_of(serials):
    key = KeyFactory(seed=29).next_keypair()
    return build_crl(
        issuer_key=key, issuer_key_id="k", revoked_serials=serials,
        serial=1, this_update=0, next_update=10,
    ).to_bytes()


def publish_crl(ca, serials):
    """*ca*'s CRL re-signed by *ca* over *serials*, under a new manifest."""
    current = parse_object(ca.publication_point.get(CRL_FILE))
    publish_forged(ca, {CRL_FILE: reforge(current, ca.key,
                                          revoked_serials=serials)})


class TestThroughACrl:
    def test_congruent_serials_parse_at_honest_cost_and_bisect(self):
        # ~240 KB: above the parse memo's object bound, so this CRL is
        # read again on every refresh.
        flood_blob, honest_blob = crl_of(FLOOD), crl_of(HONEST)
        assert best_of_three(lambda: parse_object(flood_blob)) < (
            10 * best_of_three(lambda: parse_object(honest_blob)))
        crl = parse_object(flood_blob)
        for revoked in (FLOOD[0], FLOOD[SERIALS // 2], FLOOD[-1]):
            assert crl.is_revoked(revoked)
        for standing in (0, 6, 8, FLOOD[1] - 1, FLOOD[-1] + 1,
                         FLOOD[-1] + MODULUS):
            assert not crl.is_revoked(standing)

    def test_revoked_serials_is_the_ascending_tuple(self):
        crl = parse_object(crl_of([3, 9, 70_000]))
        assert crl.revoked_serials == (3, 9, 70_000)
        assert crl.revoked_serials is crl.revoked_serials
        assert (crl.is_revoked(9), crl.is_revoked(4)) == (True, False)
        empty = parse_object(crl_of([]))
        assert not empty.is_revoked(0) and empty.revoked_serials == ()

    def test_monitor_diff_and_alerts_at_honest_cost(self):
        def watch(serials):
            clock, registry, root, holder = ipv6_world(honest_hosts(1))
            before = take_snapshot(registry, clock.now,
                                   trust_anchors=[root.certificate])
            holder.delete_object(next(iter(holder.issued_roas)))
            publish_crl(holder, serials)
            clock.advance(1)

            def work():
                after = take_snapshot(registry, clock.now,
                                   trust_anchors=[root.certificate])
                diff = diff_snapshots(before, after)
                return diff, analyze(diff, before, after)
            return work

        flood_work, honest_work = watch(FLOOD), watch(HONEST)
        assert best_of_three(flood_work) < 5 * best_of_three(honest_work)
        diff, alerts = flood_work()
        assert diff.newly_revoked == {"rsync://holder.example/repo/":
                                      tuple(FLOOD)}
        assert [alert.kind for alert in alerts] == [
            AlertKind.STEALTHY_DELETION]

    def test_suspenders_refresh_at_honest_cost(self):
        def retaining(serials):
            clock, registry, root, holder = ipv6_world(honest_hosts(1))
            srp = SuspendersRelyingParty(
                RelyingParty([root.certificate], Fetcher(registry, clock), metrics=MetricsRegistry()),
                grace_seconds=10 * HOUR,
            )
            srp.refresh()
            # A stealthy deletion beside a validly signed CRL that does
            # not name the ROA: the VRP is retained at this point.
            holder.delete_object(next(iter(holder.issued_roas)))
            publish_crl(holder, serials)
            clock.advance(1)
            srp.refresh()
            assert [r.home_point for r in srp.retained] == [holder.sia]
            return srp

        flood_srp, honest_srp = retaining(FLOOD), retaining(HONEST)
        assert best_of_three(flood_srp.refresh) < (
            5 * best_of_three(honest_srp.refresh))
        assert len(flood_srp.retained) == 1
