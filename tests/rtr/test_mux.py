"""Tests for the event-driven session multiplexer."""

import struct

from repro.rp.vrp import VRP
from repro.rtr import (
    MAX_ERROR_REPORT_LENGTH,
    DuplexPipe,
    RtrCacheServer,
    SessionMux,
)
from repro.rtr import mux as mux_module
from repro.rtr.pdu import (
    ErrorReport,
    ResetQuery,
    SerialQuery,
    encode_pdu,
    encode_prefixes,
)
from repro.telemetry import MetricsRegistry

from .per_pdu import PrefixPdu, decode_pdus, expand


def attach_one(mux):
    pipe = DuplexPipe()
    session = mux.attach(pipe)
    return pipe, session


class TestReadiness:
    def test_idle_sessions_produce_no_events(self):
        mux = SessionMux()
        for _ in range(5):
            attach_one(mux)
        assert mux.poll() == []

    def test_send_marks_session_ready(self):
        mux = SessionMux()
        pipe, session = attach_one(mux)
        attach_one(mux)  # idle sibling
        pipe.to_cache.send(encode_pdu(ResetQuery()))
        events = mux.poll()
        assert len(events) == 1
        assert events[0].session is session
        assert len(events[0].pdus) == 1
        assert isinstance(events[0].pdus[0], ResetQuery)

    def test_bytes_buffered_before_attach_are_seen(self):
        mux = SessionMux()
        pipe = DuplexPipe()
        pipe.to_cache.send(encode_pdu(ResetQuery()))
        session = mux.attach(pipe)
        events = mux.poll()
        assert [e.session for e in events] == [session]

    def test_event_consumed_only_once(self):
        mux = SessionMux()
        pipe, _session = attach_one(mux)
        pipe.to_cache.send(encode_pdu(ResetQuery()))
        assert len(mux.poll()) == 1
        assert mux.poll() == []

    def test_partial_pdu_completes_across_ticks(self):
        mux = SessionMux()
        pipe, session = attach_one(mux)
        encoded = encode_pdu(SerialQuery(1, 7))
        pipe.to_cache.send(encoded[:5])
        assert mux.poll() == []  # incomplete: buffered, no event
        pipe.to_cache.send(encoded[5:])
        events = mux.poll()
        assert len(events) == 1
        assert events[0].pdus[0] == SerialQuery(1, 7)
        assert session.receive_buffer == b""

    def test_ready_order_is_deterministic(self):
        mux = SessionMux()
        pipes = [attach_one(mux)[0] for _ in range(4)]
        for pipe in reversed(pipes):
            pipe.to_cache.send(encode_pdu(ResetQuery()))
        events = mux.poll()
        sids = [event.session.sid for event in events]
        assert sids == sorted(sids)


class TestFairness:
    def test_budget_limits_batch_size(self, monkeypatch):
        monkeypatch.setattr(mux_module, "FAIRNESS_BUDGET", 3)
        mux = SessionMux()
        pipe, session = attach_one(mux)
        for _ in range(8):
            pipe.to_cache.send(encode_pdu(ResetQuery()))
        batches = [len(mux.poll()[0].pdus) for _ in range(3)]
        assert batches == [3, 3, 2]
        assert mux.poll() == []
        assert not session.pending

    def test_chatty_session_does_not_starve_sibling(self, monkeypatch):
        monkeypatch.setattr(mux_module, "FAIRNESS_BUDGET", 2)
        mux = SessionMux()
        noisy, _ = attach_one(mux)
        quiet, quiet_session = attach_one(mux)
        for _ in range(10):
            noisy.to_cache.send(encode_pdu(ResetQuery()))
        quiet.to_cache.send(encode_pdu(ResetQuery()))
        events = mux.poll()
        served = {event.session.sid for event in events}
        assert quiet_session.sid in served


class TestPrefixPdusFromARouter:
    """A router has no business sending prefix PDUs; a run of them
    counts one PDU each against the mux's fairness budget, and is a
    protocol error to the cache."""

    VRPS = [VRP.parse(f"10.{i}.0.0/16", 64500) for i in range(8)]

    def test_each_counts_against_the_fairness_budget(self, monkeypatch):
        monkeypatch.setattr(mux_module, "FAIRNESS_BUDGET", 3)
        registry = MetricsRegistry()
        mux = SessionMux(metrics=registry)
        pipe, session = attach_one(mux)
        pipe.to_cache.send(encode_prefixes(True, self.VRPS))
        batches = [expand(mux.poll()[0].pdus) for _ in range(3)]
        assert [len(batch) for batch in batches] == [3, 3, 2]
        assert [pdu for batch in batches for pdu in batch] == [
            PrefixPdu(True, vrp) for vrp in self.VRPS]
        assert mux.poll() == [] and not session.pending
        assert registry.get("repro_rtr_pdus_drained_total").value() == 8
        assert registry.get("repro_rtr_deferred_sessions_total").value() == 2

    def test_the_cache_drops_the_router_with_error_code_3(self):
        registry = MetricsRegistry()
        server = RtrCacheServer(metrics=registry)
        pipe = DuplexPipe()
        server.attach(pipe)
        pipe.to_cache.send(encode_prefixes(False, self.VRPS))
        server.process()
        assert decode_pdus(pipe.to_router.receive()) == (
            [ErrorReport(error_code=3, text="unexpected PrefixPdu")], b"")
        assert registry.get("repro_rtr_errors_total").value(
            kind="protocol") == 1
        assert server.session_count == 0


class TestLifecycle:
    def test_closed_pipe_yields_closed_event_and_drop(self):
        mux = SessionMux()
        pipe, session = attach_one(mux)
        pipe.close()
        events = mux.poll()
        assert len(events) == 1
        assert events[0].closed
        assert len(mux) == 0 and session not in mux.sessions()

    def test_data_then_close_delivers_data_first(self):
        mux = SessionMux()
        pipe, _session = attach_one(mux)
        pipe.to_cache.send(encode_pdu(ResetQuery()))
        pipe.close()
        first = mux.poll()
        assert len(first[0].pdus) == 1 and not first[0].closed
        second = mux.poll()
        assert len(second) == 1 and second[0].closed
        assert len(mux) == 0

    def test_decode_error_drops_session(self):
        mux = SessionMux()
        pipe, _session = attach_one(mux)
        pipe.to_cache.send(b"\x99\x00\x00\x07chaos!")
        events = mux.poll()
        assert events[0].error is not None
        assert len(mux) == 0

    def test_dropped_session_never_wakes_again(self):
        mux = SessionMux()
        pipe, session = attach_one(mux)
        mux.drop(session)
        pipe.to_cache.send(encode_pdu(ResetQuery()))  # listener removed
        assert mux.poll() == []

    def test_drop_is_idempotent(self):
        mux = SessionMux()
        _pipe, session = attach_one(mux)
        mux.drop(session)
        mux.drop(session)
        assert len(mux) == 0


class TestBoundedReceiveBuffer:
    """A hostile length field is judged on the header, never buffered."""

    @staticmethod
    def header(pdu_type: int, length: int) -> bytes:
        return struct.pack(">BBHI", 0, pdu_type, 0, length)

    def test_oversized_length_is_an_error_not_a_buffer(self):
        mux = SessionMux()
        pipe, session = attach_one(mux)
        # Not parked in receive_buffer and re-concatenated every tick,
        # waiting for 4 GiB that never come.
        pipe.to_cache.send(self.header(4, 0xFFFFFFFF) + b"\0" * 100000)
        (event,) = mux.poll()
        assert event.error is not None
        assert session.receive_buffer == b"" and len(mux) == 0

    def test_error_report_at_the_cap_is_waited_for(self):
        mux = SessionMux()
        pipe, session = attach_one(mux)
        pipe.to_cache.send(self.header(10, MAX_ERROR_REPORT_LENGTH) + b"\0" * 100)
        assert mux.poll() == []
        assert len(session.receive_buffer) == 108 and len(mux) == 1

    def test_error_report_past_the_cap_drops_the_session(self):
        mux = SessionMux()
        pipe, session = attach_one(mux)
        pipe.to_cache.send(self.header(10, MAX_ERROR_REPORT_LENGTH + 1))
        (event,) = mux.poll()
        assert "cap" in event.error
        assert session.receive_buffer == b"" and len(mux) == 0

    def test_server_counts_the_drop_and_spares_siblings(self):
        registry = MetricsRegistry()
        server = RtrCacheServer(metrics=registry)
        hostile, sibling = DuplexPipe(), DuplexPipe()
        server.attach(hostile)
        server.attach(sibling)
        hostile.to_cache.send(self.header(6, 0xFFFFFFFF) + b"\0" * 50000)
        sibling.to_cache.send(encode_pdu(ResetQuery()))
        server.process()
        errors = registry.get("repro_rtr_errors_total")
        assert errors.value(kind="decode") == 1
        assert server.session_count == 1
        # The sibling was served its (empty) snapshot in the same tick.
        assert sibling.to_router.receive() != b""
        # More bytes from the dropped peer wake nothing.
        hostile.to_cache.send(b"\0" * 50000)
        server.process()
        assert errors.value(kind="decode") == 1


class TestBroadcast:
    def test_broadcast_reaches_live_sessions(self):
        mux = SessionMux()
        pipes = [attach_one(mux)[0] for _ in range(3)]
        delivered = mux.broadcast(b"hello")
        assert delivered == 3
        assert all(p.to_router.receive() == b"hello" for p in pipes)

    def test_broadcast_prunes_closed_sessions(self):
        mux = SessionMux()
        live, _ = attach_one(mux)
        dead, _ = attach_one(mux)
        dead.close()
        assert mux.broadcast(b"x") == 1
        assert len(mux) == 1
        assert live.to_router.receive() == b"x"


class TestTelemetry:
    def test_mux_metrics_move(self, monkeypatch):
        registry = MetricsRegistry()
        monkeypatch.setattr(mux_module, "FAIRNESS_BUDGET", 1)
        mux = SessionMux(metrics=registry)
        pipe, _session = attach_one(mux)
        pipe.to_cache.send(encode_pdu(ResetQuery()) * 2)
        mux.poll()  # first of two PDUs; deferred
        mux.poll()
        assert registry.get("repro_rtr_sessions").value() == 1
        assert registry.get(
            "repro_rtr_session_events_total").value(event="attached") == 1
        assert registry.get("repro_rtr_pdus_drained_total").value() == 2
        assert registry.get("repro_rtr_deferred_sessions_total").value() >= 1
        assert registry.get("repro_rtr_mux_ticks_total").value() >= 2
