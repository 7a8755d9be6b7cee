"""Unit tests for the simulated clock and small shared utilities."""

import pytest

from repro.simtime import DAY, HOUR, YEAR, Clock


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0

    def test_custom_start(self):
        # A clock starts at the epoch; a test that needs a later start
        # advances it.
        clock = Clock()
        clock.advance(100)
        assert clock.now == 100

    def test_advance(self):
        clock = Clock()
        assert clock.advance(10) == 10
        assert clock.advance(5) == 15
        assert clock.now == 15

    def test_advance_zero_allowed(self):
        clock = Clock()
        clock.advance(7)
        assert clock.advance(0) == 7

    def test_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            Clock().advance(-1)

    def test_at_least_moves_forward_only(self):
        clock = Clock()
        clock.advance(100)
        assert clock.at_least(50) == 100   # never backwards
        assert clock.at_least(200) == 200

    def test_constants(self):
        assert HOUR == 3600
        assert DAY == 24 * HOUR
        assert YEAR == 365 * DAY

    def test_repr(self):
        clock = Clock()
        clock.advance(5)
        assert repr(clock) == "Clock(now=5)"


class TestPublicationPoint:
    def test_revision_counter(self):
        from repro.rpki import InMemoryPublicationPoint

        point = InMemoryPublicationPoint()
        assert point.serial[1] == 0
        point.put("a", b"1")
        assert point.serial[1] == 1
        point.put("a", b"2")  # overwrite still counts
        assert point.serial[1] == 2
        point.delete("a")
        assert point.serial[1] == 3
        point.delete("a")  # deleting nothing does not count
        assert point.serial[1] == 3
        point.put("a", b"3")
        point.put("a", b"3")  # nor does writing the bytes already there
        assert point.serial[1] == 4
        # The serial is the pair, and the session names this point object.
        session, revision = point.serial
        assert revision == 4
        assert InMemoryPublicationPoint().serial[0] != session

    def test_rejects_empty_name(self):
        from repro.rpki import InMemoryPublicationPoint

        with pytest.raises(ValueError):
            InMemoryPublicationPoint().put("", b"x")

    def test_snapshot_is_a_copy(self):
        from repro.rpki import InMemoryPublicationPoint

        point = InMemoryPublicationPoint()
        point.put("a", b"1")
        copy = point.snapshot()
        copy["a"] = b"mutated"
        assert point.get("a") == b"1"

    def test_names_sorted_and_len(self):
        from repro.rpki import InMemoryPublicationPoint

        point = InMemoryPublicationPoint()
        point.put("b", b"2")
        point.put("a", b"1")
        assert list(point.names()) == ["a", "b"]
        assert len(point) == 2
        assert "a" in point


class TestRtrChannel:
    def test_send_receive(self):
        from repro.rtr import Channel

        channel = Channel()
        channel.send(b"hello ")
        channel.send(b"world")
        assert channel.receive() == b"hello world"
        assert channel.receive() == b""

    def test_receive_with_limit(self):
        from repro.rtr import Channel

        channel = Channel()
        channel.send(b"abcdef")
        assert channel.receive(limit=2) == b"ab"
        assert channel.pending() == 4
        assert channel.receive() == b"cdef"

    def test_closed_semantics(self):
        from repro.rtr import Channel, ChannelClosed

        channel = Channel()
        channel.send(b"tail")
        channel.close()
        with pytest.raises(ChannelClosed):
            channel.send(b"more")
        # Buffered bytes are still drainable after close...
        assert channel.receive() == b"tail"
        # ...but a drained, closed channel raises.
        with pytest.raises(ChannelClosed):
            channel.receive()

    def test_duplex_close(self):
        from repro.rtr import DuplexPipe

        pipe = DuplexPipe()
        assert not pipe.closed
        pipe.close()
        assert pipe.closed


class TestKeyFactoryCache:
    def test_clear_cache(self):
        from repro.crypto import KeyFactory

        first = KeyFactory(seed=31337).next_keypair()
        KeyFactory.clear_cache()
        again = KeyFactory(seed=31337).next_keypair()
        # Same deterministic key material, but a fresh object.
        assert again.key_id == first.key_id
        assert again is not first
