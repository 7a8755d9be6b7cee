"""Tests for the RTR cache server and router client state machines."""

import warnings

import pytest

from repro.resources import Afi
from repro.rp import VRP, VrpSet
from repro.rtr import (
    CacheResponse,
    ChainedRtrCache,
    DuplexPipe,
    EndOfData,
    ErrorReport,
    RouterState,
    RtrCacheServer,
    RtrRouterClient,
    SerialNotify,
    decode_runs,
    encode_pdu,
    encode_prefixes,
)
from repro.rtr.cache_server import MAX_HISTORY_VRPS
from repro.telemetry import MetricsRegistry


def vrps(*specs):
    return VrpSet(VRP.parse(text, asn) for text, asn in specs)


FIGURE2 = [
    ("63.174.16.0/20", 17054),
    ("63.174.16.0/22", 7341),
    ("63.161.0.0/16-24", 1239),
]


def make_pair(initial=FIGURE2, **server_kwargs):
    server = RtrCacheServer(**server_kwargs)
    if initial:
        server.update(vrps(*initial))
    pipe = DuplexPipe()
    server.attach(pipe)
    client = RtrRouterClient(pipe)
    return server, client


def pump(server, client, rounds=4):
    """Run both ends until quiescent."""
    for _ in range(rounds):
        server.process()
        client.process()


class TestResetSync:
    def test_full_sync(self):
        server, client = make_pair()
        client.connect()
        pump(server, client)
        assert client.state is RouterState.SYNCED
        assert client.vrp_count == 3
        assert client.serial == server.serial
        assert client.vrp_set() == vrps(*FIGURE2)

    def test_empty_cache_sync(self):
        server, client = make_pair(initial=[])
        client.connect()
        pump(server, client)
        assert client.state is RouterState.SYNCED
        assert client.vrp_count == 0
        assert client.serial == 0

    def test_session_id_learned(self):
        server, client = make_pair(session_id=99)
        client.connect()
        pump(server, client)
        assert client.session_id == 99


class TestIncrementalSync:
    def synced_pair(self):
        server, client = make_pair()
        client.connect()
        pump(server, client)
        return server, client

    def test_announce_flows(self):
        server, client = self.synced_pair()
        new = vrps(*FIGURE2, ("8.8.8.0/24", 15169))
        server.update(new)
        pump(server, client)   # notify -> serial query -> delta
        assert client.vrp_count == 4
        assert VRP.parse("8.8.8.0/24", 15169) in client.vrp_set()
        assert client.serial == server.serial

    def test_withdraw_flows(self):
        """A whack propagates to the router as an RTR withdrawal."""
        server, client = self.synced_pair()
        whacked = vrps(*FIGURE2[1:])  # the /20 ROA is gone
        server.update(whacked)
        pump(server, client)
        assert client.vrp_count == 2
        assert VRP.parse("63.174.16.0/20", 17054) not in client.vrp_set()

    def test_noop_update_keeps_serial(self):
        server, client = self.synced_pair()
        serial = server.serial
        server.update(vrps(*FIGURE2))
        assert server.serial == serial

    def test_multiple_updates_coalesce(self):
        server, client = self.synced_pair()
        server.update(vrps(*FIGURE2, ("8.8.8.0/24", 15169)))
        server.update(vrps(*FIGURE2))  # and back out again
        pump(server, client)
        assert client.vrp_set() == vrps(*FIGURE2)
        assert client.serial == server.serial

    def test_poll_without_changes(self):
        server, client = self.synced_pair()
        client.poll()
        pump(server, client)
        assert client.state is RouterState.SYNCED
        assert client.vrp_count == 3


class TestCacheResetPaths:
    def test_stale_serial_forces_reset(self):
        server, client = make_pair(history_window=2)
        client.connect()
        pump(server, client)
        # Age the router's serial out of the history window.
        base = list(FIGURE2)
        for i in range(4):
            base.append((f"10.{i}.0.0/16", 64512 + i))
            server.update(vrps(*base))
            server.process()  # drain notifies without letting client react
        client.poll()
        pump(server, client)
        # The cache sent Cache Reset; the client resynced from scratch.
        assert client.state is RouterState.SYNCED
        assert client.vrp_count == len(base)
        assert client.serial == server.serial

    def test_session_id_mismatch_forces_reset(self):
        server, client = make_pair()
        client.connect()
        pump(server, client)
        client.session_id = 12345  # simulate a cache restart from the past
        client.poll()
        pump(server, client)
        assert client.state is RouterState.SYNCED
        assert client.vrp_count == 3

    def test_serial_ahead_of_the_cache_forces_reset(self):
        """A router re-pointed from a cache at serial 7 to one at serial 1
        (same session id) asks for changes since a serial this cache never
        issued: it gets Cache Reset, not "no changes", and ends holding
        exactly this cache's table."""
        metrics = MetricsRegistry()
        server, client = make_pair(metrics=metrics)
        other = RtrCacheServer(metrics=MetricsRegistry())
        for i in range(7):
            other.update(vrps((f"10.{i}.0.0/16", 64512 + i)))
        assert (server.serial, other.serial) == (1, 7)
        assert other.session_id == server.session_id
        client.pipe = DuplexPipe()
        other.attach(client.pipe)
        client.connect()
        pump(other, client)
        assert (client.serial, client.vrp_count) == (7, 1)

        client.pipe = DuplexPipe()
        server.attach(client.pipe)
        client.poll()
        pump(server, client)
        assert client.state is RouterState.SYNCED
        assert client.serial == server.serial == 1
        assert client.vrp_set().as_frozenset() == vrps(*FIGURE2).as_frozenset()
        resets = metrics.get("repro_rtr_cache_resets_total")
        assert resets.value(reason="ahead") == 1


class TestMultipleRouters:
    def test_two_routers_converge(self):
        server = RtrCacheServer()
        server.update(vrps(*FIGURE2))
        pipes = [DuplexPipe(), DuplexPipe()]
        clients = [RtrRouterClient(p) for p in pipes]
        for pipe in pipes:
            server.attach(pipe)
        for client in clients:
            client.connect()
        for _ in range(4):
            server.process()
            for client in clients:
                client.process()
        assert all(c.vrp_count == 3 for c in clients)
        server.update(vrps(*FIGURE2[:1]))
        for _ in range(4):
            server.process()
            for client in clients:
                client.process()
        assert all(c.vrp_count == 1 for c in clients)


class TestFailureModes:
    def test_closed_pipe_fails_client(self):
        server, client = make_pair()
        client.connect()
        pump(server, client)
        client.pipe.close()
        client.poll()
        client.process()
        assert client.state is RouterState.FAILED
        assert client.errors

    def test_garbage_from_cache_fails_client(self):
        server, client = make_pair()
        client.connect()
        pump(server, client)
        client.pipe.to_router.send(b"\xff" * 16)
        client.process()
        assert client.state is RouterState.FAILED

    def test_server_rejects_bad_session_pdu(self):
        from repro.rtr import CacheResponse, encode_pdu

        server, client = make_pair()
        # A router must never send Cache Response; the server errors out.
        client.pipe.to_cache.send(encode_pdu(CacheResponse(1)))
        server.process()
        client.process()
        assert client.state is RouterState.FAILED

    def test_a_poll_into_a_closed_channel_stays_failed(self):
        server, client = make_pair()
        client.connect()
        pump(server, client)
        client.pipe.close()
        client.poll()
        assert client.state is RouterState.FAILED

    def test_bad_server_args(self):
        with pytest.raises(ValueError):
            RtrCacheServer(session_id=70000)
        with pytest.raises(ValueError):
            RtrCacheServer(history_window=0)


def hostile_read(session_id: int, serial: int) -> bytes:
    """One read of a Cache Response, an Error Report, a prefix PDU and
    an End of Data: everything after the Error Report comes too late."""
    return (encode_pdu(CacheResponse(session_id))
            + encode_pdu(ErrorReport(error_code=2, text="no data"))
            + encode_prefixes(True, [VRP.parse("10.0.0.0/8", 64500)])
            + encode_pdu(EndOfData(session_id, serial)))


class TestFatalErrorEndsTheRead:
    """A cache's Error Report is fatal: nothing after it in the same read
    is applied to the table or handed on."""

    def test_a_router_stops_at_the_error_report(self):
        bursts = []
        server = RtrCacheServer()
        server.update(vrps(*FIGURE2))
        pipe = DuplexPipe()
        server.attach(pipe)
        client = RtrRouterClient(
            pipe, on_burst=lambda *burst: bursts.append(burst))
        client.connect()
        pump(server, client)
        assert client.state is RouterState.SYNCED and len(bursts) == 1
        table, serial = client.vrp_set(), client.serial
        pipe.to_router.send(hostile_read(client.session_id, serial + 5))
        client.process()
        assert client.state is RouterState.FAILED
        assert client.vrp_set() == table and client.serial == serial
        assert len(bursts) == 1
        assert client.errors == ["cache error 2: no data"]

    def test_a_chained_cache_forwards_nothing(self):
        upstream = RtrCacheServer()
        upstream.update(vrps(*FIGURE2))
        chained = ChainedRtrCache(upstream)
        upstream.process()
        chained.pump()
        assert chained.client.state is RouterState.SYNCED
        served, serial = chained.current_vrps(), chained.server.serial
        chained.pipe.to_router.send(hostile_read(
            chained.client.session_id, chained.client.serial + 5))
        chained.client.process()
        assert chained.client.state is RouterState.FAILED
        assert chained.current_vrps() == served
        assert chained.server.serial == serial

    def test_a_poll_the_cache_cannot_hear_ends_the_read(self):
        server, client = make_pair()
        client.connect()
        pump(server, client)
        table, serial = client.vrp_set(), client.serial
        # The cache hung up on us; its last words were a notify and a
        # burst.  Answering the notify fails, and the burst is not read.
        client.pipe.to_cache.close()
        client.pipe.to_router.send(
            encode_pdu(SerialNotify(client.session_id, serial + 1))
            + encode_pdu(CacheResponse(client.session_id))
            + encode_prefixes(True, [VRP.parse("10.0.0.0/8", 64500)])
            + encode_pdu(EndOfData(client.session_id, serial + 1)))
        client.process()
        assert client.state is RouterState.FAILED
        assert client.vrp_set() == table and client.serial == serial


class TestMalformedPduHandling:
    """RFC 6810 §10: malformed bytes get an Error Report, then the drop."""

    def make_instrumented_pair(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        server = RtrCacheServer(metrics=registry)
        server.update(vrps(*FIGURE2))
        pipe = DuplexPipe()
        server.attach(pipe)
        client = RtrRouterClient(pipe)
        return server, client, registry

    def test_malformed_bytes_drop_session_not_server(self):
        server, client, registry = self.make_instrumented_pair()
        client.connect()
        pump(server, client)
        client.pipe.to_cache.send(b"\x99\x00\x00\x07chaos!")
        server.process()  # must not raise
        client.process()
        assert client.state is RouterState.FAILED
        errors = registry.get("repro_rtr_errors_total")
        assert errors.value(kind="decode") == 1

    def test_error_report_sent_before_drop(self):
        server, client, _ = self.make_instrumented_pair()
        client.connect()
        pump(server, client)
        client.pipe.to_cache.send(b"\xff" * 9)
        server.process()
        raw = client.pipe.to_router.receive()
        pdus, _ = decode_runs(raw)
        assert any(isinstance(p, ErrorReport) for p in pdus)

    def test_dead_session_ignored_afterwards(self):
        server, client, registry = self.make_instrumented_pair()
        client.connect()
        pump(server, client)
        client.pipe.to_cache.send(b"\x99garbage")
        server.process()
        # More garbage on the dead session must be a no-op, not a
        # second error.
        client.pipe.to_cache.send(b"\x99more-garbage")
        server.process()
        errors = registry.get("repro_rtr_errors_total")
        assert errors.value(kind="decode") == 1

    def test_fresh_session_survives_a_poisoned_sibling(self):
        server, bad, registry = self.make_instrumented_pair()
        bad.connect()
        pump(server, bad)
        bad.pipe.to_cache.send(b"\x99\x00bad")
        server.process()
        pipe = DuplexPipe()
        server.attach(pipe)
        good = RtrRouterClient(pipe)
        good.connect()
        pump(server, good)
        assert good.state is RouterState.SYNCED
        assert good.vrp_set() == vrps(*FIGURE2)

    def test_protocol_violation_counted(self):
        from repro.rtr import CacheResponse, encode_pdu

        server, client, registry = self.make_instrumented_pair()
        client.pipe.to_cache.send(encode_pdu(CacheResponse(1)))
        server.process()
        errors = registry.get("repro_rtr_errors_total")
        assert errors.value(kind="protocol") == 1


class TestEndToEndWithRelyingParty:
    def test_whack_reaches_the_router(self):
        """Full pipeline: repositories -> relying party -> RTR -> router."""
        from repro.core import execute_whack, plan_whack
        from repro.modelgen import build_figure2
        from repro.repository import Fetcher
        from repro.rp import RelyingParty, RouteValidity, validate

        world = build_figure2()
        rp = RelyingParty(
            world.trust_anchors, Fetcher(world.registry, world.clock),
        )
        rp.refresh()

        server = RtrCacheServer()
        server.update(rp.vrps)
        pipe = DuplexPipe()
        server.attach(pipe)
        router = RtrRouterClient(pipe)
        router.connect()
        pump(server, router)
        assert router.vrp_count == 8

        def state():
            return validate("63.174.16.0/20", 17054, router.vrp_set()).state

        assert state() is RouteValidity.VALID

        # The whack: repository change -> RP refresh -> RTR delta -> router.
        execute_whack(plan_whack(world.sprint, world.target20,
                                 world.continental))
        rp.refresh()
        server.update(rp.vrps)
        pump(server, router)
        assert router.vrp_count == 7
        assert state() is not RouteValidity.VALID


class TestDeltaCompaction:
    def test_history_bounded_by_window(self):
        server, client = make_pair(history_window=3)
        base = list(FIGURE2)
        for i in range(8):
            base.append((f"10.{i}.0.0/16", 64512 + i))
            server.update(vrps(*base))
        assert server.delta_history_serials <= 3
        assert server.metrics.get(
            "repro_rtr_compactions_total").value(reason="window") > 0

    def test_history_bounded_by_vrp_size(self):
        # At the shipped bound: a history of exactly MAX_HISTORY_VRPS
        # stays, one VRP past it compacts the oldest delta away.
        server = RtrCacheServer(history_window=64)
        compactions = server.metrics.get("repro_rtr_compactions_total")
        server.apply_delta(block(MAX_HISTORY_VRPS), [])
        assert server.delta_history_vrps == MAX_HISTORY_VRPS
        assert compactions.value(reason="size") == 0
        server.apply_delta(block(1, first=MAX_HISTORY_VRPS), [])
        assert server.delta_history_vrps == 1
        assert server.delta_history_serials == 1
        assert compactions.value(reason="size") == 1

    def test_compacted_serial_answered_with_reset(self):
        server, client = make_pair(history_window=2)
        client.connect()
        pump(server, client)
        base = list(FIGURE2)
        for i in range(5):
            base.append((f"10.{i}.0.0/16", 64512 + i))
            server.update(vrps(*base))
            server.process()
        resets = server.metrics.get("repro_rtr_cache_resets_total")
        before = resets.value(reason="compacted")
        client.poll()
        pump(server, client)
        assert resets.value(reason="compacted") == before + 1
        assert client.state is RouterState.SYNCED
        assert client.vrp_set() == vrps(*base)

    def test_in_window_serial_still_served_incrementally(self):
        server, client = make_pair(history_window=8)
        client.connect()
        pump(server, client)
        resets = server.metrics.get("repro_rtr_cache_resets_total")
        before = (resets.value(reason="compacted")
                  + resets.value(reason="session-id"))
        server.update(vrps(*FIGURE2, ("10.0.0.0/16", 64512)))
        pump(server, client)
        assert client.vrp_count == 4
        after = (resets.value(reason="compacted")
                 + resets.value(reason="session-id"))
        assert after == before

    def test_snapshot_burst_cached_per_serial(self):
        server, _client = make_pair()
        burst, count = server._snapshot_burst()
        again, _count = server._snapshot_burst()
        assert again is burst  # same serial: same cached bytes
        server.update(vrps(*FIGURE2, ("10.0.0.0/16", 64512)))
        rebuilt, rebuilt_count = server._snapshot_burst()
        assert rebuilt is not burst
        assert rebuilt_count == count + 1

    def test_history_gauges_track(self):
        server, _client = make_pair(history_window=4)
        registry = server.metrics
        server.update(vrps(*FIGURE2, ("10.0.0.0/16", 64512)))
        assert registry.get(
            "repro_rtr_delta_history_serials").value() == float(
                server.delta_history_serials)
        assert registry.get(
            "repro_rtr_delta_history_vrps").value() == float(
                server.delta_history_vrps)


class TestUpdateUnification:
    def test_update_rejects_anything_but_a_vrpset(self):
        server = RtrCacheServer()
        raw = {VRP.parse(text, asn) for text, asn in FIGURE2}
        for not_a_vrpset in (raw, frozenset(raw), sorted(raw)):
            with pytest.raises(TypeError):
                server.update(not_a_vrpset)
        assert server.serial == 0

    def test_vrpset_path_emits_no_warning(self):
        server = RtrCacheServer()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            server.update(vrps(*FIGURE2))
        assert server.serial == 1


def parsed(*specs):
    return [VRP.parse(text, asn) for text, asn in specs]


def block(count, first=0):
    """*count* distinct /24 VRPs inside 10.0.0.0/8, from the *first*-th."""
    return [VRP.from_integers(Afi.IPV4, (10 << 24) | (i << 8), 24, 24, 64512)
            for i in range(first, first + count)]


EXTRA = ("10.0.0.0/16", 64512)


def recorded(announced, withdrawn):
    """What a cache's history holds for one serial's delta: its prefix
    PDU count and their wire bytes, withdrawals first."""
    return len(announced) + len(withdrawn), (
        encode_prefixes(False, withdrawn) + encode_prefixes(True, announced))


class TestApplyDelta:
    def test_installs_and_serves_the_delta(self):
        server, client = make_pair()
        client.connect()
        pump(server, client)
        serial = server.apply_delta(parsed(EXTRA), parsed(FIGURE2[0]))
        assert serial == server.serial == 2
        assert server.current_vrps() == frozenset(
            parsed(*FIGURE2[1:], EXTRA))
        pump(server, client)
        assert client.serial == 2
        assert client.vrp_set().as_frozenset() == server.current_vrps()

    def test_empty_delta_keeps_the_serial(self):
        server, _client = make_pair()
        assert server.apply_delta([], []) == 1
        assert server.delta_history_serials == 1

    def test_ineffective_changes_are_filtered(self):
        server, _client = make_pair()
        # Announce of a present VRP, withdraw of an absent one: nothing.
        assert server.apply_delta(parsed(FIGURE2[0]), parsed(EXTRA)) == 1
        # Mixed with one real change: only that one is recorded.
        server.apply_delta(
            parsed(FIGURE2[0], EXTRA, EXTRA), parsed(("10.9.0.0/16", 64999)),
        )
        assert server.serial == 2
        assert server._history[2] == recorded(parsed(EXTRA), [])
        assert server.delta_history_vrps == len(FIGURE2) + 1

    def test_vrp_on_both_sides_ends_up_announced(self):
        server, _client = make_pair()
        present, absent = parsed(FIGURE2[0]), parsed(EXTRA)
        assert server.apply_delta(present, present) == 1   # stays: no change
        assert server.apply_delta(absent, absent) == 2     # a plain announce
        assert server._history[2] == recorded(absent, [])
        assert server.current_vrps() == frozenset(parsed(*FIGURE2, EXTRA))

    def test_gauges_match_after_mixed_update_and_delta_installs(self):
        server, _client = make_pair(history_window=3)
        registry = server.metrics
        table = parsed(*FIGURE2)
        for i in range(6):
            added = block(1_000, first=1_000 * i)
            table.extend(added)
            if i % 2:
                server.update(VrpSet(table))
            else:
                server.apply_delta(added, [])
            assert server.current_vrps() == frozenset(table)
            assert server.vrp_count == len(table)
            assert registry.get("repro_rtr_vrps").value() == len(table)
            assert registry.get(
                "repro_rtr_delta_history_serials").value() == float(
                    server.delta_history_serials)
            assert registry.get(
                "repro_rtr_delta_history_vrps").value() == float(
                    server.delta_history_vrps)
        assert server.serial == 7
        assert server.delta_history_serials <= 3
        assert server.delta_history_vrps <= 3_000
        assert registry.get(
            "repro_rtr_compactions_total").value(reason="window") > 0
