"""An in-memory byte stream standing in for the RTR TCP connection.

RTR runs over a long-lived TCP session between router and cache.  The
simulation's stand-in is a pair of byte queues with explicit, manual
delivery — so tests can interleave, delay, or cut the connection at any
byte boundary, exercising the stream reassembly in the PDU codec.

A channel optionally carries one *listener* callback, invoked whenever
bytes arrive or the channel closes.  That is the readiness edge the
:class:`repro.rtr.mux.SessionMux` builds on: instead of scanning every
attached session per tick, the multiplexer is told which sessions have
work — the select/epoll of the simulated transport.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["Channel", "ChannelClosed", "DuplexPipe"]


class ChannelClosed(Exception):
    """I/O on a closed channel."""


class Channel:
    """One direction of a byte stream."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._closed = False
        self._listener: Callable[[], None] | None = None

    @property
    def closed(self) -> bool:
        return self._closed

    def subscribe(self, listener: Callable[[], None] | None) -> None:
        """Install *listener*, called after every send and on close.

        One listener per channel (the last subscriber wins); pass
        ``None`` to unsubscribe.  If bytes are already buffered the
        listener fires immediately, so a subscriber never misses data
        that arrived before it attached.
        """
        self._listener = listener
        if listener is not None and (self._buffer or self._closed):
            listener()

    def send(self, data: bytes) -> None:
        if self._closed:
            raise ChannelClosed("send on closed channel")
        self._buffer.extend(data)
        if self._listener is not None:
            self._listener()

    def receive(self) -> bytes:
        """Drain every buffered byte."""
        if self._closed and not self._buffer:
            raise ChannelClosed("receive on closed, drained channel")
        data = bytes(self._buffer)
        self._buffer.clear()
        return data

    def pending(self) -> int:
        return len(self._buffer)

    def close(self) -> None:
        self._closed = True
        if self._listener is not None:
            self._listener()


class DuplexPipe:
    """A connected pair of channels: the router↔cache session."""

    def __init__(self) -> None:
        self.to_cache = Channel()
        self.to_router = Channel()

    def close(self) -> None:
        self.to_cache.close()
        self.to_router.close()

    @property
    def closed(self) -> bool:
        return self.to_cache.closed or self.to_router.closed
