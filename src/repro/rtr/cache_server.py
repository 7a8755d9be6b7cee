"""The cache side of RTR: a relying party serving a router fleet.

Keeps the served VRPs under a monotonically increasing *serial*, a
**bounded** window of per-serial deltas for incremental updates, and any
number of attached router sessions behind an event-driven
:class:`~repro.rtr.mux.SessionMux`.  When the relying party's refresh
changes the VRP set, :meth:`RtrCacheServer.update` bumps the serial and
sends a Serial Notify down every session — the routers then pull the
delta.

The served table is a plain set, edited in place by
:meth:`RtrCacheServer.apply_delta` with C-level set operations, so
installing a change costs O(delta), not O(table): an RTR cache answers
serial and reset queries, never covering-prefix lookups, and holds no
prefix index.  The sorted order the snapshot burst is served in is the
one consumer of that order, and it is O(table) anyway, so the order is
settled there: the cache keeps the order as of the last snapshot plus
the set of VRPs whose side has changed since (a withdrawal and a
re-announcement in between cancel), and the next snapshot drops the
departed, appends the arrived and sorts once, merging two sorted runs.
The order is the VRPs' own (a :class:`~repro.rp.vrp.VRP` is a tuple),
so sorting takes no key.

Three serving-scale mechanisms (see docs/rtr.md):

- **Session multiplexing.**  Input is drained through the mux's ready
  set with per-session fairness budgets, so one tick costs O(active
  sessions), not O(fleet), and one chatty session cannot starve its
  siblings.
- **Delta compaction.**  The history window is bounded both in serials
  (``history_window``) and in total delta VRPs (``MAX_HISTORY_VRPS``);
  compacted-away serials are answered with Cache Reset — the client
  re-syncs from the snapshot instead of the cache replaying unbounded
  history (the Stalloris-shaped memory attack this forecloses).
- **Burst caching.**  The full-snapshot burst and every delta burst are
  encoded once per serial and re-served as bytes, so syncing 1,000
  routers costs one encoding plus 1,000 buffer appends.  A delta is
  encoded as it is installed, so the history holds bytes, not VRPs.

This is the last hop of the paper's Figure 1: the cache's beliefs,
however they were manipulated, become every attached router's
route-validity oracle.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import filterfalse

from ..rp.vrp import VrpSet
from ..telemetry import MetricsRegistry, default_registry
from .channel import ChannelClosed, DuplexPipe
from .mux import MuxSession, SessionMux
from .pdu import (
    CacheReset,
    CacheResponse,
    EndOfData,
    ErrorReport,
    Pdu,
    ResetQuery,
    SerialNotify,
    SerialQuery,
    Stretch,
    VrpRecord,
    encode_pdu,
    encode_prefixes,
)

__all__ = ["RtrCacheServer"]

_DEFAULT_HISTORY_WINDOW = 16
# Delta VRPs kept across the history window, whatever its length.
MAX_HISTORY_VRPS = 4096

# CamelCase PDU class name -> snake_case label value, cached because the
# lookup sits on the per-PDU send path.
_PDU_LABELS: dict[type, str] = {}


def _pdu_label(pdu: Pdu) -> str:
    label = _PDU_LABELS.get(type(pdu))
    if label is None:
        name = type(pdu).__name__
        label = "".join(
            ("_" + ch.lower()) if ch.isupper() else ch for ch in name
        ).lstrip("_")
        _PDU_LABELS[type(pdu)] = label
    return label


class RtrCacheServer:
    """An RTR cache serving the VRP set of one relying party."""

    def __init__(
        self,
        *,
        session_id: int = 1,
        history_window: int = _DEFAULT_HISTORY_WINDOW,
        metrics: MetricsRegistry | None = None,
    ):
        if not 0 <= session_id <= 0xFFFF:
            raise ValueError(f"session id out of range: {session_id}")
        if history_window < 1:
            raise ValueError("history window must be at least 1")
        self.session_id = session_id
        self.history_window = history_window
        self.serial = 0
        # VRPs, or a chained cache's records: see current_vrps().
        self._vrps: set[VrpRecord] = set()
        # The served order as of the last snapshot, and the VRPs it and
        # the served set disagree on: arrived since, or withdrawn since.
        self._sorted: list[VrpRecord] = []
        self._changed: set[VrpRecord] = set()
        self._frozen: frozenset[VrpRecord] | None = None
        # Serial -> (its prefix PDU count, their encoding).
        self._history: dict[int, tuple[int, bytes]] = {}
        self._history_vrps = 0
        self._snapshot: tuple[int, bytes, int] | None = None
        self.metrics = metrics if metrics is not None else default_registry()
        self.mux = SessionMux(metrics=self.metrics)
        self._m_pdus = self.metrics.counter(
            "repro_rtr_pdus_sent_total",
            help="PDUs sent to router sessions, by PDU type",
            labelnames=("type",),
        )
        # Bound children per PDU label: label resolution is too slow for
        # the per-PDU send path, a child increment is one attribute add.
        self._pdu_counters: dict[str, object] = {}
        self._m_serial_bumps = self.metrics.counter(
            "repro_rtr_serial_bumps_total",
            help="serial increments caused by real VRP-set change",
        )
        self._m_vrps = self.metrics.gauge(
            "repro_rtr_vrps", help="VRPs in the currently served set"
        )
        self._m_errors = self.metrics.counter(
            "repro_rtr_errors_total",
            help="router sessions dropped for cause, by error class",
            labelnames=("kind",),
        )
        self._m_history_vrps = self.metrics.gauge(
            "repro_rtr_delta_history_vrps",
            help="VRPs held across the retained delta window",
        )
        self._m_history_serials = self.metrics.gauge(
            "repro_rtr_delta_history_serials",
            help="serials retained in the delta window",
        )
        compactions = self.metrics.counter(
            "repro_rtr_compactions_total",
            help="delta serials compacted away into the snapshot, by reason",
            labelnames=("reason",),
        )
        self._m_compactions = {reason: compactions.bind(reason=reason)
                               for reason in ("window", "size")}
        self._m_resets = self.metrics.counter(
            "repro_rtr_cache_resets_total",
            help="Cache Reset answers forcing a client snapshot re-sync, "
                 "by reason",
            labelnames=("reason",),
        )

    # -- data-side API -----------------------------------------------------

    def update(self, vrps: VrpSet) -> int:
        """Install a new VRP set; returns the (possibly unchanged) serial.

        Diffs *vrps* against the served set — two set differences over
        cached frozensets — and hands the result to :meth:`apply_delta`.
        """
        if not isinstance(vrps, VrpSet):
            raise TypeError(
                f"update takes a VrpSet, not {type(vrps).__name__}"
            )
        target = vrps.as_frozenset()
        served = self.current_vrps()
        serial = self.apply_delta(target - served, served - target)
        # Equal content now, so *target* is the served set, frozen, and
        # holds the caller's own VRP objects: the next diff matches most
        # of them by identity.
        self._frozen = target
        return serial

    def apply_delta(
        self, announced: Iterable[VrpRecord], withdrawn: Iterable[VrpRecord]
    ) -> int:
        """Install a change set; returns the (possibly unchanged) serial.

        The one install primitive, for callers that already hold the
        delta (a chained cache forwarding an upstream burst).  Only
        *effective* changes are installed and recorded: announcing a VRP
        already served or withdrawing one never served is dropped, and a
        VRP named on both sides ends up announced (the wire order —
        withdrawals, then announcements).  A delta with no effective
        change does not bump the serial (RFC 6810 serials only move on
        real change).
        """
        served = self._vrps
        # In the caller's order, duplicates dropped: a chained cache
        # hands on its upstream's wire order, which sorts in one pass.
        announced = dict.fromkeys(announced)
        withdrawn = list(filter(served.__contains__, filterfalse(
            announced.__contains__, dict.fromkeys(withdrawn))))
        announced = list(filterfalse(served.__contains__, announced))
        if not announced and not withdrawn:
            return self.serial
        served.difference_update(withdrawn)
        served.update(announced)
        # Each VRP withdrawn was served and each announced was not, so
        # each flips its side of the snapshot order: one returning to
        # the side it was on cancels out.
        self._changed.symmetric_difference_update(withdrawn)
        self._changed.symmetric_difference_update(announced)
        announced.sort()
        withdrawn.sort()
        self.serial += 1
        self._frozen = None
        self._snapshot = None
        self._m_serial_bumps.inc()
        self._m_vrps.set(len(served))
        # Encoded once, here — withdrawals, then announcements — so the
        # history holds bytes, not VRPs.
        size = len(announced) + len(withdrawn)
        self._history[self.serial] = (size, encode_prefixes(
            False, withdrawn) + encode_prefixes(True, announced))
        self._history_vrps += size
        self._compact_history()
        self._notify_all()
        return self.serial

    def _compact_history(self) -> None:
        """Evict deltas past either bound; evicted serials need a reset.

        The snapshot (the served table) always answers for compacted
        serials, so eviction never loses data — it trades replay for a
        full re-sync, keeping cache memory bounded no matter the churn.
        """
        floor = self.serial - self.history_window
        history = self._history
        while history:
            # Serials are inserted in increasing order: the first key is
            # the oldest.
            oldest = next(iter(history))
            if oldest <= floor:
                reason = "window"
            elif self._history_vrps > MAX_HISTORY_VRPS:
                reason = "size"
            else:
                break
            self._history_vrps -= history.pop(oldest)[0]
            self._m_compactions[reason].inc()
        self._m_history_vrps.set(self._history_vrps)
        self._m_history_serials.set(len(self._history))

    @property
    def vrp_count(self) -> int:
        return len(self._vrps)

    @property
    def delta_history_serials(self) -> int:
        """Serials currently answerable from delta history."""
        return len(self._history)

    @property
    def delta_history_vrps(self) -> int:
        """Total VRPs held across the retained delta window."""
        return self._history_vrps

    def current_vrps(self) -> frozenset[VrpRecord]:
        """The served VRP set, frozen once per serial.

        The chained-tier equivalence probe, and what a chained cache
        diffs a reset burst against.  Its members are what was
        installed: ``VRP`` objects at a cache its relying party updates,
        and at a chained cache the plain
        :data:`~repro.rtr.pdu.VrpRecord` tuples its upstream session
        decoded, which equal and hash as those ``VRP`` objects.
        """
        if self._frozen is None:
            self._frozen = frozenset(self._vrps)
        return self._frozen

    @property
    def session_count(self) -> int:
        return len(self.mux)

    # -- session management ------------------------------------------------

    def attach(self, pipe: DuplexPipe) -> None:
        """Register a router session on *pipe*."""
        self.mux.attach(pipe)

    def _count_label(self, label: str, amount: int = 1) -> None:
        child = self._pdu_counters.get(label)
        if child is None:
            child = self._pdu_counters[label] = self._m_pdus.labels(type=label)
        child.inc(amount)

    def _count_pdu(self, pdu: Pdu) -> None:
        self._count_label(_pdu_label(pdu))

    def _notify_all(self) -> None:
        encoded = encode_pdu(SerialNotify(self.session_id, self.serial))
        delivered = self.mux.broadcast(encoded)
        if delivered:
            self._count_label("serial_notify", delivered)

    def process(self) -> None:
        """One mux tick: handle whatever routers have sent, fairly.

        Sessions that sent more than the fairness budget stay ready and
        continue on the next call; malformed bytes get an Error Report
        and the drop (RFC 6810 §10) without disturbing siblings.
        """
        for event in self.mux.poll():
            session = event.session
            if event.error is not None:
                # Malformed bytes from a router: the mux already dropped
                # the session; report the error best-effort and move on.
                self._m_errors.inc(kind="decode")
                self._send_final(session, ErrorReport(
                    error_code=0, text=event.error,
                ))
                continue
            if event.closed:
                continue
            for pdu in event.pdus:
                if not session.alive:
                    break  # dropped by an earlier PDU of this batch
                try:
                    self._handle(session, pdu)
                except Exception as exc:
                    self._m_errors.inc(kind="internal")
                    self._send_final(session, ErrorReport(
                        error_code=0,
                        text=f"internal error: {type(exc).__name__}",
                    ))
                    self.mux.drop(session)

    # -- protocol ----------------------------------------------------------

    def _handle(
        self, session: MuxSession, pdu: Pdu | Stretch
    ) -> None:
        if isinstance(pdu, ResetQuery):
            self._send_full(session)
        elif isinstance(pdu, SerialQuery):
            self._send_incremental(session, pdu)
        elif isinstance(pdu, ErrorReport):
            self.mux.drop(session)
        # Anything else from a router is a protocol violation; RFC 6810
        # says send an Error Report and drop the session.  A stretch of
        # prefix PDUs is a plain tuple, named for what was on the wire.
        elif not isinstance(pdu, SerialNotify):
            name = "PrefixPdu" if type(pdu) is tuple else type(pdu).__name__
            self._m_errors.inc(kind="protocol")
            self._send_final(session, ErrorReport(
                error_code=3, text=f"unexpected {name}",
            ))
            self.mux.drop(session)

    def _snapshot_burst(self) -> tuple[bytes, int]:
        """The full-sync burst for the current serial, encoded once.

        Returns ``(bytes, prefix_pdu_count)``; every router syncing at
        this serial is served the same cached bytes.
        """
        if self._snapshot is None or self._snapshot[0] != self.serial:
            changed = self._changed
            if changed:
                # A changed VRP in the old order has left, one not in it
                # has arrived: keep the rest, append the arrivals, and
                # let one sort merge the two runs.
                order = list(filterfalse(changed.__contains__, self._sorted))
                order += filter(self._vrps.__contains__, changed)
                order.sort()
                self._sorted = order
                changed.clear()
            burst = (
                encode_pdu(CacheResponse(self.session_id))
                + encode_prefixes(True, self._sorted)
                + encode_pdu(EndOfData(self.session_id, self.serial))
            )
            self._snapshot = (self.serial, burst, len(self._sorted))
        return self._snapshot[1], self._snapshot[2]

    def _send_full(self, session: MuxSession) -> None:
        burst, prefixes = self._snapshot_burst()
        if self._send_bytes(session, burst):
            self._count_label("cache_response")
            if prefixes:
                self._count_label("prefix_pdu", prefixes)
            self._count_label("end_of_data")

    def _send_incremental(self, session: MuxSession, query: SerialQuery) -> None:
        if query.session_id != self.session_id:
            # The router is talking to a previous incarnation of this
            # cache; make it start over.
            self._m_resets.inc(reason="session-id")
            self._send(session, CacheReset())
            return
        if query.serial == self.serial:
            self._send(session, CacheResponse(self.session_id))
            self._send(session, EndOfData(self.session_id, self.serial))
            return
        if query.serial > self.serial:
            # A serial this cache never issued: no incremental update
            # leads from it, and "no changes" would leave the router
            # keeping a table the cache never served.
            self._m_resets.inc(reason="ahead")
            self._send(session, CacheReset())
            return
        needed = range(query.serial + 1, self.serial + 1)
        if not all(s in self._history for s in needed):
            # The client is behind the compacted window: snapshot re-sync
            # instead of replaying history the cache no longer holds.
            self._m_resets.inc(reason="compacted")
            self._send(session, CacheReset())
            return
        deltas = [self._history[s] for s in needed]
        burst = b"".join(
            [encode_pdu(CacheResponse(self.session_id))]
            + [encoded for _size, encoded in deltas]
            + [encode_pdu(EndOfData(self.session_id, self.serial))]
        )
        if self._send_bytes(session, burst):
            self._count_label("cache_response")
            prefixes = sum(size for size, _encoded in deltas)
            if prefixes:
                self._count_label("prefix_pdu", prefixes)
            self._count_label("end_of_data")

    # -- transmission ------------------------------------------------------

    def _send_bytes(self, session: MuxSession, burst: bytes) -> bool:
        try:
            session.send(burst)
            return True
        except ChannelClosed:
            self.mux.drop(session)
            return False

    def _send(self, session: MuxSession, pdu: Pdu) -> None:
        if self._send_bytes(session, encode_pdu(pdu)):
            self._count_pdu(pdu)

    def _send_final(self, session: MuxSession, pdu: Pdu) -> None:
        """Best-effort send to a session being (or already) dropped."""
        try:
            session.send(encode_pdu(pdu))
            self._count_pdu(pdu)
        except ChannelClosed:
            pass
