"""An event-driven RTR session multiplexer with per-session fairness.

One validating cache feeds a *fleet* of routers — route-server
deployments hold thousands of concurrent RTR sessions, and the paper's
whack/threat model reaches every one of them through this fan-out tier.
Walking all sessions per tick is O(fleet) even when the fleet is idle;
the :class:`SessionMux` instead keeps a **ready set** fed by channel
listeners (see :meth:`repro.rtr.channel.Channel.subscribe`), so one tick
costs O(sessions with pending bytes), the select/epoll shape of a real
serving loop — on the simulated clock, with no threads.

Fairness: a single chatty (or hostile, Stalloris-style slow-feeding)
session must not starve its siblings, so each ready session is drained
at most :data:`FAIRNESS_BUDGET` PDUs per tick.  The mux reads what
:func:`repro.rtr.pdu.decode_runs` reads: a stretch of prefix PDUs
counts as the PDUs in it, and one longer than what is left of the
budget is split there, its flag column and its VRP list alike.
Left-over decoded PDUs stay queued on the session and the session stays
ready, guaranteeing every session makes progress every tick regardless
of how much one peer sends.

The mux owns transport concerns only — readiness, stream reassembly,
decode errors, closed channels, fan-out writes.  Protocol semantics
(what a Serial Query *means*) stay in :class:`repro.rtr.RtrCacheServer`,
which consumes the :class:`MuxEvent` stream :meth:`SessionMux.poll`
yields.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..telemetry import MetricsRegistry, default_registry
from .channel import ChannelClosed, DuplexPipe
from .pdu import Pdu, PduDecodeError, Stretch, decode_runs

__all__ = ["MuxEvent", "MuxSession", "SessionMux"]

# PDUs one ready session may hand upstream per tick.
FAIRNESS_BUDGET = 64


@dataclass
class MuxSession:
    """One attached router session: pipe, reassembly buffer, PDU queue."""

    sid: int
    pipe: DuplexPipe
    receive_buffer: bytes = b""
    pending: deque[Pdu | Stretch] = field(default_factory=deque)
    alive: bool = True

    def send(self, encoded: bytes) -> None:
        """Write pre-encoded PDU bytes to the router side of the pipe."""
        self.pipe.to_router.send(encoded)


@dataclass(frozen=True)
class MuxEvent:
    """What one ready session produced in one tick.

    Exactly one of three shapes: a batch of decoded ``pdus`` (a stretch
    of prefix PDUs as one ``(flags, [record, ...])`` item, as
    :func:`~repro.rtr.pdu.decode_runs` reads it), a fatal ``error``
    string (undecodable bytes — the session's buffers are already
    cleared), or ``closed`` (the peer hung up).
    """

    session: MuxSession
    pdus: tuple[Pdu | Stretch, ...] = ()
    error: str | None = None
    closed: bool = False


class SessionMux:
    """Drains all attached sessions per tick, fairly, event-driven."""

    def __init__(self, *, metrics: MetricsRegistry | None = None):
        self._sessions: dict[int, MuxSession] = {}
        self._ready: set[int] = set()
        self._next_sid = 0
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_sessions = self.metrics.gauge(
            "repro_rtr_sessions", help="router sessions currently attached"
        )
        self._m_session_events = self.metrics.counter(
            "repro_rtr_session_events_total",
            help="session lifecycle events, by event",
            labelnames=("event",),
        )
        self._m_ticks = self.metrics.counter(
            "repro_rtr_mux_ticks_total", help="multiplexer poll ticks"
        )
        self._m_drained = self.metrics.counter(
            "repro_rtr_pdus_drained_total",
            help="PDUs drained from router sessions and handed upstream",
        )
        self._m_deferred = self.metrics.counter(
            "repro_rtr_deferred_sessions_total",
            help="per-tick session drains cut short by the fairness budget",
        )

    # -- membership --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sessions)

    def attach(self, pipe: DuplexPipe) -> MuxSession:
        """Register a router session on *pipe* and watch it for input."""
        sid = self._next_sid
        self._next_sid += 1
        session = MuxSession(sid=sid, pipe=pipe)
        self._sessions[sid] = session
        # The listener fires immediately if bytes are already buffered,
        # so a session attached mid-conversation is ready at once.
        pipe.to_cache.subscribe(lambda: self._ready.add(sid))
        self._m_sessions.set(len(self._sessions))
        self._m_session_events.inc(event="attached")
        return session

    def drop(self, session: MuxSession) -> None:
        """Forget *session* entirely: no more reads, writes, or memory."""
        if session.sid not in self._sessions:
            return
        session.alive = False
        session.receive_buffer = b""
        session.pending.clear()
        session.pipe.to_cache.subscribe(None)
        del self._sessions[session.sid]
        self._ready.discard(session.sid)
        self._m_sessions.set(len(self._sessions))
        self._m_session_events.inc(event="dropped")

    def sessions(self) -> list[MuxSession]:
        """Live sessions, in attach order."""
        return list(self._sessions.values())

    # -- writes ------------------------------------------------------------

    def broadcast(self, encoded: bytes) -> int:
        """Send pre-encoded bytes to every live session; returns deliveries.

        Sessions whose pipe has closed are dropped on the spot, so a
        broadcast over a mostly-dead fleet self-prunes instead of paying
        the dead sessions forever.
        """
        delivered = 0
        for session in list(self._sessions.values()):
            if session.pipe.closed:
                self.drop(session)
                continue
            try:
                session.send(encoded)
                delivered += 1
            except ChannelClosed:
                self.drop(session)
        return delivered

    # -- the tick ----------------------------------------------------------

    def poll(self) -> list[MuxEvent]:
        """One tick: drain every ready session, fairness-budgeted.

        Sessions become ready via channel listeners (bytes arrived, peer
        closed), never by scanning; a session left with queued PDUs or
        unread bytes stays ready for the next tick.  Ready sessions are
        visited in ascending session id for determinism.
        """
        self._m_ticks.inc()
        events: list[MuxEvent] = []
        ready, self._ready = self._ready, set()
        for sid in sorted(ready):
            session = self._sessions.get(sid)
            if session is None or not session.alive:
                continue
            event = self._drain(session)
            if event is not None:
                events.append(event)
        return events

    def _drain(self, session: MuxSession) -> MuxEvent | None:
        """Drain one session up to the fairness budget."""
        closed = False
        try:
            data = session.receive_buffer + session.pipe.to_cache.receive()
            session.receive_buffer = b""
        except ChannelClosed:
            data = session.receive_buffer
            session.receive_buffer = b""
            closed = True
        closed = closed or session.pipe.closed
        if data:
            try:
                items, session.receive_buffer = decode_runs(data)
            except PduDecodeError as exc:
                self.drop(session)
                return MuxEvent(session=session, error=str(exc))
            session.pending.extend(items)
        pending = session.pending
        if closed and not pending:
            self.drop(session)
            self._m_session_events.inc(event="closed")
            return MuxEvent(session=session, closed=True)
        if not pending:
            return None
        batch = []
        room = FAIRNESS_BUDGET
        while pending and room:
            item = pending.popleft()
            if type(item) is tuple:
                flags, run = item
                if len(run) > room:
                    pending.appendleft((flags[room:], run[room:]))
                    item = (flags[:room], run[:room])
                room -= len(item[1])
            else:
                room -= 1
            batch.append(item)
        self._m_drained.inc(FAIRNESS_BUDGET - room)
        if pending or session.receive_buffer or closed:
            # More work than one fair share: stay ready, continue next
            # tick so siblings get their turn first.
            self._ready.add(session.sid)
            if pending:
                self._m_deferred.inc()
        return MuxEvent(session=session, pdus=tuple(batch))
