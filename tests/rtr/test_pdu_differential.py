"""The production RTR codec and router pinned to the per-PDU references.

``repro.rtr.pdu`` reads prefix PDUs a stretch of one header at a time
and writes them a run of one family at a time, a column at a time both
ways; ``reference_codec`` is the loop it replaced, one header and one
field at a time.  ``RtrRouterClient`` applies a burst a stretch at a time;
``reference_router`` is the router it replaced, one PDU at a time.
Everything here is seeded: equal PDUs, equal remainder and equal error
text on every stream, and an equal router after every read, however the
stream is cut — long stretches at record boundaries and one byte either
side, short streams at every byte.
"""

import random
import struct

import pytest

from repro.resources import ASN, Afi, Prefix
from repro.rp.vrp import VRP, VrpSet
from repro.rtr import (
    CacheReset,
    CacheResponse,
    DuplexPipe,
    EndOfData,
    ErrorReport,
    MAX_ERROR_REPORT_LENGTH,
    PduDecodeError,
    ResetQuery,
    RouterState,
    RtrCacheServer,
    RtrRouterClient,
    SerialNotify,
    SerialQuery,
    SessionMux,
    decode_runs,
    encode_prefixes,
)
from repro.rtr.mux import FAIRNESS_BUDGET
from repro.telemetry import MetricsRegistry
from . import reference_codec as reference
from .per_pdu import PrefixPdu, decode_pdus, encode_pdu, expand
from .reference_codec import wire_order as _wire_order
from .reference_router import ReferenceRouter


def random_vrp(rng: random.Random, afi: Afi | None = None) -> VRP:
    if afi is None:
        afi = rng.choice((Afi.IPV4, Afi.IPV6))
    length = rng.randint(0, afi.bits)
    network = rng.getrandbits(length) << (afi.bits - length) if length else 0
    return VRP(
        Prefix(afi, network, length),
        rng.randint(length, afi.bits),
        ASN(rng.choice((0, 1, 64512, 2**32 - 1, rng.getrandbits(32)))),
    )


def random_control(rng: random.Random):
    session, serial = rng.getrandbits(16), rng.getrandbits(32)
    return rng.choice((
        SerialNotify(session, serial),
        SerialQuery(session, serial),
        ResetQuery(),
        CacheResponse(session),
        EndOfData(session, serial),
        CacheReset(),
        ErrorReport(rng.getrandbits(16), "x" * rng.randint(0, 40)),
    ))


def random_stream(rng: random.Random, pdus: int) -> list:
    """Runs of one prefix family, control PDUs in between."""
    stream = []
    while len(stream) < pdus:
        if rng.random() < 0.3:
            stream.append(random_control(rng))
            continue
        afi = rng.choice((Afi.IPV4, Afi.IPV6))
        for _ in range(rng.randint(1, 8)):
            stream.append(
                PrefixPdu(rng.random() < 0.7, random_vrp(rng, afi))
            )
    return stream


def both(data: bytes):
    """Decode with both codecs; assert they agree; return the result."""
    try:
        expected = reference.decode_pdus(data)
    except PduDecodeError as exc:
        with pytest.raises(PduDecodeError) as caught:
            decode_pdus(data)
        assert str(caught.value) == str(exc)
        raise
    try:
        got = decode_pdus(data)
    except PduDecodeError as exc:
        pytest.fail(f"only the production codec rejects these bytes: {exc}")
    assert got == expected
    # Equal as tuples is not enough for the PDU the router queues as is.
    assert [type(p) for p in got[0]] == [type(p) for p in expected[0]]
    return got


class TestWellFormedStreams:
    @pytest.mark.parametrize("seed", range(5))
    def test_whole(self, seed):
        stream = random_stream(random.Random(seed), 300)
        blob = b"".join(reference.encode_pdu(p) for p in stream)
        assert both(blob) == (stream, b"")

    @pytest.mark.parametrize("seed", range(5))
    def test_encoders_agree(self, seed):
        for pdu in random_stream(random.Random(100 + seed), 300):
            assert encode_pdu(pdu) == reference.encode_pdu(pdu)

    @pytest.mark.parametrize("seed", range(3))
    def test_split_at_every_byte_boundary(self, seed):
        stream = random_stream(random.Random(200 + seed), 30)
        blob = b"".join(reference.encode_pdu(p) for p in stream)
        for cut in range(len(blob) + 1):
            head, rest = both(blob[:cut])
            tail, leftover = both(rest + blob[cut:])
            assert head + tail == stream and leftover == b""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_chunks(self, seed):
        rng = random.Random(300 + seed)
        stream = random_stream(rng, 200)
        blob = b"".join(reference.encode_pdu(p) for p in stream)
        decoded, buffer, at = [], b"", 0
        while at < len(blob):
            step = rng.choice((1, 3, 7, 8, 19, 20, 21, 32, 33, 64, 500))
            pdus, buffer = both(buffer + blob[at : at + step])
            decoded += pdus
            at += step
        assert decoded == stream and buffer == b""

    def test_reserved_and_flag_bits_are_read_alike(self):
        # Non-zero reserved fields and stray flag bits inside a run.
        vrp = VRP(Prefix.parse("10.0.0.0/8"), 8, ASN(1))
        plain = bytearray(encode_pdu(PrefixPdu(True, vrp)))
        odd_session = bytearray(plain); odd_session[2:4] = b"\xab\xcd"
        odd_zero = bytearray(plain); odd_zero[11] = 0xFF
        flags_fe = bytearray(plain); flags_fe[8] = 0xFE
        flags_ff = bytearray(plain); flags_ff[8] = 0xFF
        blob = bytes(plain + odd_session + plain + odd_zero + flags_fe
                     + flags_ff + plain)
        pdus, rest = both(blob)
        assert [p.announce for p in pdus] == [
            True, True, True, True, False, True, True
        ]
        assert {p.vrp for p in pdus} == {vrp} and rest == b""


def _header(pdu_type, length, session_or_flags=0, version=0):
    return struct.pack(">BBHI", version, pdu_type, session_or_flags, length)


def _prefix(pdu_type, flags, length, max_length, address: bytes, asn=1):
    body = bytes((flags, length, max_length, 0)) + address + struct.pack(
        ">I", asn
    )
    return _header(pdu_type, 8 + len(body)) + body


MALFORMED = {
    "wrong version": _header(2, 8, version=1),
    "unknown type": _header(99, 8),
    "unknown type, huge length": _header(5, 0xFFFFFFFF),
    "impossible length": _header(2, 2),
    "impossible length, unknown type": _header(99, 7),
    "reset query with a body": _header(2, 9) + b"\0",
    "cache response with a body": _header(3, 12) + b"\0" * 4,
    "cache reset with a body": _header(8, 0xFFFFFFFF),
    "ipv4 prefix too short": _header(4, 10) + b"\0\0",
    "ipv4 prefix too long": _header(4, 32) + b"\0" * 24,
    "ipv6 prefix too short": _header(6, 20) + b"\0" * 12,
    "prefix length of 4 GiB": _header(4, 0xFFFFFFFF) + b"\0" * 100000,
    "serial notify truncated": _header(0, 10) + b"\0\0",
    "serial query too long": _header(1, 16) + b"\0" * 8,
    "end of data too long": _header(7, 1 << 20),
    "ipv4 host bits": _prefix(4, 1, 24, 24, bytes([10, 0, 0, 1])),
    "ipv6 host bits": _prefix(6, 1, 32, 48, b"\x20\x01\x0d\xb8" + b"\1" * 12),
    "ipv4 prefix length 33": _prefix(4, 1, 33, 33, bytes(4)),
    "ipv6 prefix length 129": _prefix(6, 1, 129, 129, bytes(16)),
    "maxLength below length": _prefix(4, 1, 16, 8, bytes([10, 0, 0, 0])),
    "maxLength above 32": _prefix(4, 1, 16, 33, bytes([10, 0, 0, 0])),
    "maxLength above 128": _prefix(6, 0, 16, 129, bytes(16)),
    "error report truncated": _header(10, 12) + b"\0" * 4,
    "error report past the cap": _header(10, MAX_ERROR_REPORT_LENGTH + 1),
    "error report, text overruns":
        _header(10, 19) + bytes(4) + (5000).to_bytes(4, "big") + b"abc",
    "error report, text short of the body":
        _header(10, 22) + bytes(4) + (3).to_bytes(4, "big") + b"abcdef",
    "error report, encapsulated PDU overruns":
        _header(10, 24) + (9).to_bytes(4, "big") + b"\0" * 12,
}

GOOD_V4 = encode_pdu(PrefixPdu(True, VRP(Prefix.parse("10.0.0.0/8"), 8, ASN(1))))
GOOD_V6 = encode_pdu(
    PrefixPdu(True, VRP(Prefix.parse("2001:db8::/32"), 48, ASN(2)))
)


class TestMalformedStreams:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_same_error_text(self, name):
        with pytest.raises(PduDecodeError) as alone:
            both(MALFORMED[name])
        # Behind well-formed PDUs — inside and right after a prefix run —
        # the verdict is the same and nothing decoded before it escapes.
        for lead in (GOOD_V4, GOOD_V4 * 3, GOOD_V6 * 2 + GOOD_V4,
                     encode_pdu(CacheResponse(1)) + GOOD_V6):
            with pytest.raises(PduDecodeError) as behind:
                both(lead + MALFORMED[name])
            assert str(behind.value) == str(alone.value)

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_same_error_however_it_arrives(self, name):
        """Cut anywhere: both codecs wait alike, then fail alike."""
        blob = GOOD_V4 * 2 + MALFORMED[name][:64]
        for cut in range(len(blob)):
            try:
                _pdus, rest = both(blob[:cut])
            except PduDecodeError:
                continue
            with pytest.raises(PduDecodeError):
                both(rest + blob[cut:])


def synced_pair(vrps):
    server = RtrCacheServer()
    server.update(VrpSet(vrps))
    pipe = DuplexPipe()
    server.attach(pipe)
    client = RtrRouterClient(pipe)
    client.connect()
    server.process()
    return server, client


class TestRouterOnPoisonedBurst:
    def test_valid_burst_then_garbage_in_one_read(self):
        rng = random.Random(7)
        server, client = synced_pair({random_vrp(rng) for _ in range(50)})
        client.pipe.to_router.send(b"\x99\x00\x00\x07chaos!")
        client.process()
        # The read failed as a whole: nothing of the burst was applied.
        assert client.state is RouterState.FAILED
        assert client.vrp_count == 0 and client.serial == 0
        assert len(client.errors) == 1
        sent, rest = decode_pdus(client.pipe.to_cache.receive())
        assert rest == b""
        assert sent == [
            ErrorReport(error_code=0, text="unsupported RTR version 153")
        ]

    def test_oversized_length_does_not_grow_the_router_buffer(self):
        _server, client = synced_pair(set())
        client.process()
        assert client.state is RouterState.SYNCED
        client.pipe.to_router.send(_header(4, 0xFFFFFFFF) + b"\0" * 100000)
        client.process()
        assert client.state is RouterState.FAILED
        assert client._receive_buffer == b""


class TestBurstBytes:
    def make_table(self, seed, count):
        rng = random.Random(seed)
        return {random_vrp(rng) for _ in range(count)}

    def test_snapshot_burst_is_the_reference_encoding_in_vrp_order(self):
        table = self.make_table(11, 400)
        server = RtrCacheServer(session_id=9)
        server.update(VrpSet(table))
        burst, count = server._snapshot_burst()
        expected = [CacheResponse(9)] + [
            PrefixPdu(True, vrp) for vrp in sorted(table)
        ] + [EndOfData(9, server.serial)]
        assert count == len(table)
        assert burst == b"".join(reference.encode_pdu(p) for p in expected)

    def snapshot_is(self, server, table):
        burst, count = server._snapshot_burst()
        expected = [CacheResponse(server.session_id)] + [
            PrefixPdu(True, vrp) for vrp in sorted(table)
        ] + [EndOfData(server.session_id, server.serial)]
        assert count == len(table)
        assert burst == b"".join(reference.encode_pdu(p) for p in expected)

    def test_order_survives_churn(self):
        """The served order is settled when a snapshot asks for it, from
        the last snapshot's order and whatever changed since — however
        many deltas that was, and whichever side each VRP ended on."""
        rng = random.Random(12)
        table = self.make_table(12, 300)
        assert {vrp[0] for vrp in table} == {32, 128}
        server = RtrCacheServer()
        server.update(VrpSet(table))
        self.snapshot_is(server, table)
        for step in range(40):
            leaving = rng.sample(sorted(table), rng.randint(0, 40))
            arriving = [random_vrp(rng) for _ in range(rng.randint(0, 40))]
            # Duplicates inside the delta, a VRP on both sides (served
            # or not), withdrawals of VRPs never served.
            arriving += arriving[: rng.randint(0, 5)]
            leaving += leaving[: rng.randint(0, 5)]
            both = rng.sample(sorted(table), 2) + arriving[:2]
            leaving += both + [random_vrp(rng) for _ in range(3)]
            arriving += both
            rng.shuffle(arriving)
            rng.shuffle(leaving)
            serial = server.apply_delta(arriving, leaving)
            gone = (table - set(arriving)) & set(leaving)
            new = set(arriving) - table
            table = (table - gone) | new
            assert server.current_vrps() == table
            # The delta recorded holds each effective change once.
            if gone or new:
                assert server._history[serial] == (len(gone) + len(new), (
                    b"".join(reference.encode_pdu(PrefixPdu(False, vrp))
                             for vrp in sorted(gone))
                    + b"".join(reference.encode_pdu(PrefixPdu(True, vrp))
                               for vrp in sorted(new))))
            if rng.random() < 0.3:
                self.snapshot_is(server, table)
        self.snapshot_is(server, table)

    def test_order_cancels_a_round_trip_between_snapshots(self):
        rng = random.Random(15)
        table = self.make_table(15, 100)
        server = RtrCacheServer()
        server.update(VrpSet(table))
        self.snapshot_is(server, table)
        served, fresh = sorted(table)[7], random_vrp(rng, Afi.IPV6)
        assert fresh not in table
        # Withdrawn and re-announced; announced and withdrawn again.
        server.apply_delta((), [served])
        server.apply_delta([served, fresh], ())
        server.apply_delta((), [fresh])
        assert server._changed == set()
        self.snapshot_is(server, table)
        # The same with a snapshot in between each step.
        for announced, withdrawn, table in (
            ((), [served], table - {served}),
            ([served, fresh], (), table | {fresh}),
            ((), [fresh], table),
        ):
            server.apply_delta(announced, withdrawn)
            self.snapshot_is(server, table)

    def test_delta_burst_is_the_reference_encoding(self):
        rng = random.Random(13)
        table = self.make_table(13, 300)
        server, client = synced_pair(table)
        client.process()
        leaving = set(rng.sample(sorted(table), 60))
        arriving = {random_vrp(rng) for _ in range(60)} - table
        server.apply_delta(arriving, leaving)
        client.process()       # Serial Notify -> Serial Query
        server.process()
        burst = client.pipe.to_router.receive()
        expected = (
            [CacheResponse(server.session_id)]
            + [PrefixPdu(False, vrp) for vrp in sorted(leaving)]
            + [PrefixPdu(True, vrp) for vrp in sorted(arriving)]
            + [EndOfData(server.session_id, server.serial)]
        )
        assert burst == b"".join(reference.encode_pdu(p) for p in expected)

    def test_encode_prefixes_is_the_concatenation(self):
        """Any iterable, in any order, the families mixed however."""
        rng = random.Random(14)
        vrps = sorted(self.make_table(14, 200))
        shuffled = rng.sample(vrps, len(vrps))
        v4 = [v for v in vrps if v[0] == 32]
        v6 = [v for v in vrps if v[0] == 128]
        alternating = [v for pair in zip(v4, v6) for v in pair]
        assert len(alternating) > 50
        for announce in (True, False):
            for case in (vrps, shuffled, alternating, vrps[:1], v6[:1], []):
                expected = b"".join(
                    reference.encode_pdu(PrefixPdu(announce, v)) for v in case
                )
                assert encode_prefixes(announce, case) == expected
                assert encode_prefixes(announce, iter(case)) == expected
                assert encode_prefixes(
                    announce, (v for v in case)) == expected
        assert encode_prefixes(True, ()) == b""


def test_wire_order_is_vrp_order():
    """10,000 VRPs of both families, ties on every field included."""
    rng = random.Random(2013)
    vrps = []
    while len(vrps) < 10000:
        vrp = random_vrp(rng)
        vrps.append(vrp)
        prefix = vrp.prefix
        # Same prefix, other maxLength / ASN; same network, other length.
        vrps.append(VRP(prefix, rng.randint(prefix.length, prefix.afi.bits),
                        vrp.asn))
        vrps.append(VRP(prefix, vrp.max_length, ASN(rng.getrandbits(32))))
        if prefix.length < prefix.afi.bits:
            vrps.append(VRP(
                Prefix(prefix.afi, prefix.network, prefix.length + 1),
                prefix.afi.bits, vrp.asn,
            ))
    rng.shuffle(vrps)
    assert {v.prefix.afi for v in vrps} == {Afi.IPV4, Afi.IPV6}
    assert sorted(vrps, key=_wire_order) == sorted(vrps)


# ---------------------------------------------------------------------------
# the router: stretches applied at End of Data, pinned to the per-PDU router
# ---------------------------------------------------------------------------


def cache_stream(rng: random.Random, bursts: int) -> list:
    """What a cache, a hostile one included, may send a router: bursts
    over a small pool of VRPs of both families, so flags flip, a VRP is
    announced and withdrawn (either way round) in one burst and
    duplicates abound; a Cache Response, a Cache Reset or a Serial
    Notify now and then in mid-burst, and now and then a new session."""
    pool = [random_vrp(rng) for _ in range(10)]
    session = rng.getrandbits(16)
    stream, serial = [], rng.getrandbits(31)
    for _ in range(bursts):
        stream.append(CacheResponse(session))
        for _ in range(rng.randint(0, 6)):
            roll = rng.random()
            if roll < 0.06:
                if rng.random() < 0.2:
                    session = (session + 1) & 0xFFFF
                stream.append(CacheResponse(session))
            elif roll < 0.1:
                stream.append(CacheReset())
            elif roll < 0.13:
                stream.append(SerialNotify(session, serial))
            else:
                afi = rng.choice((Afi.IPV4, Afi.IPV6))
                family = [v for v in pool if v.prefix.afi is afi] or [
                    random_vrp(rng, afi)]
                announce = rng.random() < 0.6
                for _ in range(rng.randint(1, 5)):
                    if rng.random() < 0.4:
                        announce = not announce
                    stream.append(PrefixPdu(announce, rng.choice(family)))
        serial = (serial + 1) & 0xFFFFFFFF
        stream.append(EndOfData(session, serial))
        if rng.random() < 0.7:
            # A synced router polls: the next burst is incremental.
            stream.append(SerialNotify(session, serial))
    return stream


A4 = VRP.parse("10.0.0.0/8", 1)
B4 = VRP.parse("192.0.2.0/24-28", 2)
C6 = VRP.parse("2001:db8::/32-48", 3)
D6 = VRP.parse("2001:db8:1::/48", 4)


def _burst(session, serial, *prefixes):
    return ([CacheResponse(session)]
            + [PrefixPdu(sign == "+", vrp) for sign, vrp in prefixes]
            + [EndOfData(session, serial)])


# Each case a burst after the reset burst that installs A4, C6.
NAMED_BURSTS = {
    "flag flip on every PDU": _burst(
        7, 2, ("+", B4), ("-", A4), ("+", D6), ("-", C6), ("+", A4)),
    "announced then withdrawn": _burst(
        7, 2, ("+", B4), ("+", D6), ("-", B4)),
    "withdrawn then announced": _burst(
        7, 2, ("-", A4), ("+", A4), ("-", C6), ("+", C6), ("-", C6)),
    "duplicates": _burst(
        7, 2, ("+", B4), ("+", B4), ("+", B4), ("-", A4), ("-", A4),
        ("+", B4)),
    "interleaved families": _burst(
        7, 2, ("+", B4), ("+", D6), ("+", B4), ("-", C6), ("-", A4),
        ("+", C6)),
    "cache response in mid-burst": [CacheResponse(7), PrefixPdu(True, B4),
                                    PrefixPdu(False, A4)]
    + _burst(7, 2, ("+", D6)),
    "new session in mid-burst": [CacheResponse(7), PrefixPdu(True, B4)]
    + _burst(8, 9, ("+", D6), ("+", A4)),
    "cache reset in mid-burst": [CacheResponse(7), PrefixPdu(True, B4),
                                 CacheReset(), PrefixPdu(False, A4),
                                 PrefixPdu(True, D6), EndOfData(7, 2)],
}


# Each case a burst after the same reset burst that the cache cuts short
# with a fatal Error Report: the router stops there.
FATAL_BURSTS = {
    "error report in mid-burst": [
        CacheResponse(7), ErrorReport(2, "no data"), PrefixPdu(True, B4),
        EndOfData(7, 5)],
}


class RouterPair:
    """A production router and the per-PDU reference, fed alike."""

    def __init__(self):
        self.bursts, self.reference_bursts = [], []
        self.router = RtrRouterClient(
            DuplexPipe(), on_burst=lambda *burst: self.bursts.append(burst))
        self.reference = ReferenceRouter(
            DuplexPipe(),
            on_burst=lambda *burst: self.reference_bursts.append(burst))
        self.router.connect()
        self.reference.connect()
        self.check()

    def feed(self, chunk: bytes) -> None:
        for router in (self.router, self.reference):
            router.pipe.to_router.send(chunk)
            router.process()
        self.check()

    def check(self) -> None:
        router, reference = self.router, self.reference
        assert router._vrps == reference.vrps
        assert (router.state, router.serial, router.session_id) == (
            reference.state, reference.serial, reference.session_id)
        assert expand(router._pending) == reference.pending
        assert router._receive_buffer == reference._receive_buffer
        assert router.errors == reference.errors
        # Every (reset, announced, withdrawn), lists in order.
        assert self.bursts == self.reference_bursts
        assert (router.pipe.to_cache.receive()
                == reference.pipe.to_cache.receive())


def _wire(stream) -> bytes:
    return b"".join(reference.encode_pdu(p) for p in stream)


class TestRouterAgainstReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_chunks(self, seed):
        rng = random.Random(500 + seed)
        blob = _wire(cache_stream(rng, 40))
        pair, at = RouterPair(), 0
        while at < len(blob):
            step = rng.choice((1, 7, 8, 20, 31, 32, 33, 100, 1000))
            pair.feed(blob[at : at + step])
            at += step
        assert pair.router.state is not RouterState.FAILED
        resets = [reset for reset, _announced, _withdrawn in pair.bursts]
        assert len(resets) == 40 and 0 < sum(resets) < 40

    @pytest.mark.parametrize("seed", range(2))
    def test_cut_at_every_byte(self, seed):
        blob = _wire(cache_stream(random.Random(600 + seed), 3))
        for cut in range(len(blob) + 1):
            pair = RouterPair()
            pair.feed(blob[:cut])
            pair.feed(blob[cut:])

    @pytest.mark.parametrize("name", sorted(NAMED_BURSTS))
    def test_named_burst_cut_at_every_byte(self, name):
        blob = _wire(_burst(7, 1, ("+", A4), ("+", C6))
                     + NAMED_BURSTS[name])
        whole = RouterPair()
        whole.feed(blob)
        assert len(whole.bursts) == 2
        for cut in range(len(blob) + 1):
            pair = RouterPair()
            pair.feed(blob[:cut])
            pair.feed(blob[cut:])
            assert pair.bursts == whole.bursts

    @pytest.mark.parametrize("name", sorted(FATAL_BURSTS))
    def test_fatal_burst_cut_at_every_byte(self, name):
        blob = _wire(_burst(7, 1, ("+", A4), ("+", C6))
                     + FATAL_BURSTS[name])
        for cut in range(len(blob) + 1):
            pair = RouterPair()
            pair.feed(blob[:cut])
            pair.feed(blob[cut:])
            assert pair.router.state is RouterState.FAILED
            assert pair.router._vrps == {A4, C6} and pair.router.serial == 1
            assert len(pair.bursts) == 1

    def test_a_stretch_is_one_header(self):
        # The family changes on every PDU: a stretch each.
        stream = NAMED_BURSTS["interleaved families"][1:-1]
        items, rest = decode_runs(_wire(stream))
        assert rest == b"" and items == [
            (b"\1", [B4]), (b"\1", [D6]), (b"\1", [B4]), (b"\0", [C6]),
            (b"\0", [A4]), (b"\1", [C6]),
        ]
        # The flag is a column: a flip does not end a stretch.
        flips = NAMED_BURSTS["flag flip on every PDU"][1:-1]
        assert decode_runs(_wire(flips))[0] == [
            (b"\1\0", [B4, A4]), (b"\1\0", [D6, C6]), (b"\1", [A4])]
        items, _rest = decode_runs(_wire(
            NAMED_BURSTS["duplicates"][1:-1]))
        assert items == [(b"\1\1\1\0\0\1", [B4, B4, B4, A4, A4, B4])]


# ---------------------------------------------------------------------------
# long stretches: one header over hundreds of records
# ---------------------------------------------------------------------------


FAMILIES = pytest.mark.parametrize(
    "afi", (Afi.IPV4, Afi.IPV6), ids=("ipv4", "ipv6"))
STRETCH = 300


def long_stretch(rng: random.Random, afi: Afi, count: int = STRETCH) -> list:
    """*count* prefix PDUs of one family, flags at random, over a pool
    small enough that a VRP is announced and withdrawn in one stretch."""
    pool = [random_vrp(rng, afi) for _ in range(count // 4)]
    return [PrefixPdu(rng.random() < 0.7, rng.choice(pool))
            for _ in range(count)]


def record_size(afi: Afi) -> int:
    return 20 if afi is Afi.IPV4 else 32


def cuts(lead: int, size: int, count: int) -> list[int]:
    """Record boundaries of a stretch of *count* *size*-byte records
    from byte *lead* on, and one byte either side: the first and last
    few and every 37th in between."""
    boundaries = sorted({*range(4), *range(0, count + 1, 37),
                         *range(count - 3, count + 1)})
    return [lead + i * size + step for i in boundaries for step in (-1, 0, 1)]


# A refused record of each family, by what is wrong with it.
REFUSED = {
    Afi.IPV4: {
        "host bits": (24, 24, bytes([10, 0, 0, 1])),
        "maxLength below length": (16, 8, bytes([10, 0, 0, 0])),
        "maxLength above the family's bits": (16, 33, bytes([10, 0, 0, 0])),
    },
    Afi.IPV6: {
        "host bits": (32, 48, b"\x20\x01\x0d\xb8" + b"\1" * 12),
        "maxLength below length": (48, 32, bytes(16)),
        "maxLength above the family's bits": (16, 129, bytes(16)),
    },
}
PLACES = {"first": 0, "middle": STRETCH // 2, "last": STRETCH - 1}


def pdu_type(afi: Afi) -> int:
    return 4 if afi is Afi.IPV4 else 6


class TestLongStretches:
    @FAMILIES
    def test_codec_cut_at_record_boundaries(self, afi):
        stream = ([CacheResponse(3)]
                  + long_stretch(random.Random(700 + afi.value), afi)
                  + [EndOfData(3, 4)])
        blob = _wire(stream)
        items, rest = decode_runs(blob)
        assert rest == b"" and len(items) == 3
        assert len(items[1][0]) == len(items[1][1]) == STRETCH
        assert both(blob) == (stream, b"")
        for cut in cuts(8, record_size(afi), STRETCH):
            head, rest = both(blob[:cut])
            tail, leftover = both(rest + blob[cut:])
            assert head + tail == stream and leftover == b""

    @FAMILIES
    def test_router_cut_at_record_boundaries(self, afi):
        rng = random.Random(710 + afi.value)
        table = [PrefixPdu(True, random_vrp(rng, afi))
                 for _ in range(STRETCH)]
        blob = _wire([CacheResponse(3), *table, EndOfData(3, 4),
                      CacheResponse(3), *long_stretch(rng, afi),
                      EndOfData(3, 5)])
        second = len(_wire([CacheResponse(3), *table, EndOfData(3, 4),
                            CacheResponse(3)]))
        for cut in cuts(second, record_size(afi), STRETCH):
            pair = RouterPair()
            pair.feed(blob[:cut])
            pair.feed(blob[cut:])
            assert pair.router.serial == 5 and len(pair.bursts) == 2

    @FAMILIES
    @pytest.mark.parametrize("place", sorted(PLACES))
    @pytest.mark.parametrize("fault", sorted(REFUSED[Afi.IPV4]))
    def test_refused_record(self, afi, place, fault):
        records = [_wire([pdu]) for pdu in long_stretch(
            random.Random(720 + afi.value), afi)]
        records[PLACES[place]] = _prefix(
            pdu_type(afi), 1, *REFUSED[afi][fault])
        blob = b"".join(records)
        with pytest.raises(PduDecodeError, match="^bad prefix PDU: "):
            both(blob)
        pair = RouterPair()
        pair.feed(_wire([CacheResponse(3)]) + blob + _wire([EndOfData(3, 4)]))
        assert pair.router.state is RouterState.FAILED

    @FAMILIES
    def test_zero_field_changes_mid_stretch(self, afi):
        stream = long_stretch(random.Random(730 + afi.value), afi)
        records = [bytearray(_wire([pdu])) for pdu in stream]
        for record in records[STRETCH // 2:]:
            record[2:4] = b"\x00\x07"
        blob = b"".join(records)
        assert both(blob) == (stream, b"")
        items, _rest = decode_runs(blob)
        assert [len(vrps) for _flags, vrps in items] == [
            STRETCH // 2, STRETCH - STRETCH // 2]
        pair = RouterPair()
        pair.feed(_wire([CacheResponse(3)]) + blob + _wire([EndOfData(3, 4)]))
        assert pair.router.vrp_count

    @FAMILIES
    def test_partial_trailing_record(self, afi):
        stream = [CacheResponse(3)] + long_stretch(
            random.Random(740 + afi.value), afi) + [EndOfData(3, 4)]
        blob = _wire(stream)
        size = record_size(afi)
        end = len(blob) - 12  # the last record ends where End of Data starts
        for short in (1, 8, size - 1):
            pdus, rest = both(blob[:end - short])
            assert pdus == stream[:-2] and len(rest) == size - short
            pair = RouterPair()
            pair.feed(blob[:end - short])
            pair.feed(blob[end - short:])
            assert pair.router.state is RouterState.SYNCED

    @FAMILIES
    def test_mux_splits_a_long_stretch(self, afi):
        stream = long_stretch(random.Random(750 + afi.value), afi)
        mux = SessionMux(metrics=MetricsRegistry())
        pipe = DuplexPipe()
        mux.attach(pipe)
        pipe.to_cache.send(_wire(stream) + _wire(stream[:5])[:-3])
        batches = []
        while (events := mux.poll()):
            batches.append(events[0].pdus)
        sizes = [sum(len(item[1]) for item in batch) for batch in batches]
        assert sizes == [FAIRNESS_BUDGET] * (STRETCH // FAIRNESS_BUDGET) + [
            STRETCH % FAIRNESS_BUDGET + 4]
        assert all(len(flags) == len(vrps)
                   for batch in batches for flags, vrps in batch)
        pdus, rest = reference.decode_pdus(_wire(stream + stream[:5])[:-3])
        assert [pdu for batch in batches for pdu in expand(batch)] == pdus
        assert mux.sessions()[0].receive_buffer == rest
