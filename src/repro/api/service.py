"""The query plane: ``QueryService`` over a relying party.

One service wraps one :class:`~repro.rp.RelyingParty` and serves five
endpoints, all deterministic on the simulated clock:

- ``lookup_prefix(prefix)`` — the covering VRPs of a prefix (any origin);
- ``lookup_asn(asn)`` — every VRP authorizing an origin AS;
- ``validate_route(prefix, origin)`` — full RFC 6811 validation with
  evidence, via the unified :func:`repro.rp.origin.validate`;
- ``history()`` — the newest :data:`HISTORY_DEPTH` refresh epochs
  (serial, content hash, added/removed VRPs);
- ``diff(from_serial)`` — the net VRP change between two served epochs,
  the monitor-facing "what did the authorities just do to me" query.

Consistency contract: **every answer is computed against the backing
relying party's live VRP set.**  The service subscribes to the relying
party and folds every refresh's net ``(announced, withdrawn)`` into a
pending change; each request first adopts that change if there is one,
so a refresh performed behind the service's back — including a faulted
one mid-chaos-campaign — is visible to the very next query.  The
benchmark's campaign invariant holds the service to exactly that.

Serial numbers are content-addressed like the RTR cache server's: a
refresh (or several, flapping A→B→A between two requests) whose folded
change is empty does not bump the serial and keeps every cached response
warm; any real change bumps it and *is* the added/removed delta recorded
in the history ring.  No table is diffed, sorted or re-hashed to find
that out: the work per epoch is proportional to the change.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from ..resources import ASN, Prefix
from ..rp import RelyingParty
from ..rp.origin import validate
from ..rp.vrp import VRP, VrpSet
from ..telemetry import MetricsRegistry, default_registry
from .cache import CacheStats, ResponseCache
from .ratelimit import RateLimitConfig, TokenBucket

__all__ = [
    "ApiConfig",
    "ApiResponse",
    "HistoryEntry",
    "QueryService",
    "QueryStatus",
    "VrpDiff",
]

# Most clients a service tracks rate-limit state for; beyond this the
# least-recently-seen client's bucket is dropped (and refills on return).
_MAX_TRACKED_CLIENTS = 4096

# Response-size buckets: answers are usually a handful of VRPs; the tail
# (lookup_asn over a big holder) is what the histogram is for.
RESPONSE_VRP_BUCKETS: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0,
                                           64.0, 256.0)


class QueryStatus:
    """Response outcomes (string constants, stable API)."""

    OK = "ok"
    RATE_LIMITED = "rate-limited"
    UNKNOWN_SERIAL = "unknown-serial"


# Refresh epochs a query service keeps for diff and history queries.
HISTORY_DEPTH = 32

# Builds a NamedTuple without its own __new__, a Python frame per call.
_tuple_new = tuple.__new__


@dataclass(frozen=True)
class ApiConfig:
    """Shape of one query service."""

    cache_capacity: int = 4096      # response-cache entries
    rate_limit: RateLimitConfig | None = field(
        default_factory=RateLimitConfig
    )                               # None disables rate limiting


@dataclass(frozen=True)
class HistoryEntry:
    """One served epoch: the VRP set's identity and its delta."""

    serial: int
    timestamp: int               # simulated time the epoch was adopted
    content_hash: str
    vrp_count: int
    added: tuple[VRP, ...]       # vs the previous served epoch
    removed: tuple[VRP, ...]


@dataclass(frozen=True)
class VrpDiff:
    """Net VRP change between two served epochs."""

    from_serial: int
    to_serial: int
    added: tuple[VRP, ...]
    removed: tuple[VRP, ...]

    @property
    def empty(self) -> bool:
        return not self.added and not self.removed


class ApiResponse(NamedTuple):
    """Envelope every endpoint returns.

    An immutable value: it compares and hashes as the tuple of its five
    fields, and equals that plain tuple.
    """

    status: str                  # a QueryStatus constant
    serial: int                  # served epoch
    content_hash: str            # VRP set fingerprint the answer is for
    payload: object              # endpoint-specific; None unless OK
    cached: bool                 # answered from the response cache

    @property
    def ok(self) -> bool:
        return self.status == QueryStatus.OK


class QueryService:
    """Origin-validation-as-a-service over one relying party, on its clock."""

    def __init__(
        self,
        rp: RelyingParty,
        *,
        config: ApiConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.rp = rp
        self.config = config if config is not None else ApiConfig()
        self._clock = rp.clock
        self.metrics = metrics if metrics is not None else default_registry()
        # (epoch, kind, text) -> (payload, VRPs in it, size bucket)
        self._cache = ResponseCache(self.config.cache_capacity)
        self._limit = self.config.rate_limit
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self._history: deque[HistoryEntry] = deque(maxlen=HISTORY_DEPTH)
        self._m_refreshes = self.metrics.counter(
            "repro_api_refreshes_total",
            help="refresh cycles driven through the query service",
        )
        self._m_rate_limited = self.metrics.counter(
            "repro_api_rate_limited_total",
            help="requests rejected by the per-client token bucket",
        )
        self._m_serial = self.metrics.gauge(
            "repro_api_serial", help="current served epoch serial"
        )
        self._m_requests = self.metrics.counter(
            "repro_api_requests_total",
            help="query-plane requests, by endpoint kind and outcome",
            labelnames=("kind", "status"),
        )
        # Tallies: counting a served request, or a lookup indexed by
        # whether it hit, is a list add.  Both lookup results show from
        # the start, at 0.
        self._m_ok = {
            kind: self._m_requests.tally(kind=kind, status=QueryStatus.OK)
            for kind in ("validate", "lookup_prefix", "lookup_asn",
                         "history", "diff")
        }
        cache_metric = self.metrics.counter(
            "repro_api_cache_total",
            help="response-cache lookups, by result",
            labelnames=("result",),
        )
        self._m_cache = tuple(cache_metric.tally(result=result)
                              for result in ("miss", "hit"))
        for result in ("miss", "hit"):
            cache_metric.labels(result=result)
        sizes = self.metrics.histogram(
            "repro_api_response_vrps",
            buckets=RESPONSE_VRP_BUCKETS,
            help="VRPs per served answer (response-size distribution)",
        )
        # An answer's size bucket is found once, when it is cached; the
        # histogram's cells take the count and the sum (see its child).
        self._size_bounds = sizes.buckets
        self._m_sizes = sizes.sample().cells
        # Net table change of the refreshes since the served epoch.
        self._pending_added: set[VRP] = set()
        self._pending_removed: set[VRP] = set()
        self._stale = False
        rp.subscribe(self._on_refresh)
        # Genesis snapshot: whatever the RP currently serves (usually the
        # empty pre-first-refresh set) becomes serial 0.
        self._vrps: VrpSet = rp.vrps
        self._hash: str = self._vrps.content_hash()
        self._serial = 0
        self._history.append(HistoryEntry(
            serial=0,
            timestamp=self._clock.now,
            content_hash=self._hash,
            vrp_count=len(self._vrps),
            added=tuple(self._vrps),
            removed=(),
        ))

    # -- epoch management ----------------------------------------------------

    def refresh(self):
        """Drive one refresh of the backing RP and adopt the result."""
        report = self.rp.refresh()
        self._m_refreshes.inc()
        self._sync()
        return report

    def _on_refresh(
        self, announced: tuple[VRP, ...], withdrawn: tuple[VRP, ...]
    ) -> None:
        if announced or withdrawn:
            _fold(self._pending_added, self._pending_removed,
                  announced, withdrawn)
            self._stale = True

    def _sync(self) -> None:
        """Open a new epoch if the refreshes since the last one changed
        the table; the folded change is the epoch's delta."""
        if not self._stale:
            return
        self._stale = False
        self._vrps = self.rp.vrps
        if not self._pending_added and not self._pending_removed:
            return
        added = tuple(sorted(self._pending_added))
        removed = tuple(sorted(self._pending_removed))
        self._pending_added.clear()
        self._pending_removed.clear()
        self._hash = self._vrps.content_hash()
        self._serial += 1
        self._m_serial.set(self._serial)
        self._history.append(HistoryEntry(
            serial=self._serial,
            timestamp=self._clock.now,
            content_hash=self._hash,
            vrp_count=len(self._vrps),
            added=added,
            removed=removed,
        ))

    @property
    def serial(self) -> int:
        self._sync()
        return self._serial

    @property
    def content_hash(self) -> str:
        self._sync()
        return self._hash

    # -- the request path ----------------------------------------------------

    def _allow(self, client: str, now: int) -> bool:
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = self._buckets[client] = TokenBucket(self._limit, now=now)
            if len(self._buckets) > _MAX_TRACKED_CLIENTS:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(client)
        return bucket.try_acquire(now)

    def _refuse(self, kind: str, status: str) -> ApiResponse:
        self._m_requests.inc(kind=kind, status=status)
        return ApiResponse(status, self._serial, self._hash, None, False)

    def _serve(self, kind, text, client, answer, *args, by_serial=False):
        """The one request path: sync, rate-limit, cache, compute, count.

        The cache key is ``(epoch, kind, text)``, its first component the
        content hash (same content → same answer, even across an A→B→A
        flap) or, with *by_serial*, the serial, for history-shaped
        queries whose answer depends on the ring, not just the content.
        On a miss ``answer(self, *args)`` computes ``(payload, VRPs in
        it)`` and the cache keeps that pair with its size bucket, so a
        hit computes nothing.  The cache's dictionary is probed once,
        and a miss inserts once and evicts at most once, here.
        """
        if self._stale:
            self._sync()
        if self._limit is not None and not self._allow(client, self._clock.now):
            self._m_rate_limited.inc()
            return self._refuse(kind, QueryStatus.RATE_LIMITED)
        key = (self._serial if by_serial else self._hash, kind, text)
        cache = self._cache
        entry = cache.get(key)
        if entry is None:
            payload, size = answer(self, *args)
            entry = cache[key] = (
                payload, size, bisect_left(self._size_bounds, size)
            )
            if len(cache) > cache.capacity:
                cache.popitem(last=False)
                cache.evictions += 1
            cached = False
        else:
            cache.move_to_end(key)
            cache.hits += 1
            cached = True
        self._m_cache[cached][0] += 1
        self._m_ok[kind][0] += 1
        sizes = self._m_sizes
        sizes[entry[2]] += 1
        sizes[-1] += entry[1]
        return _tuple_new(ApiResponse, (
            QueryStatus.OK, self._serial, self._hash, entry[0], cached
        ))

    # -- endpoints -----------------------------------------------------------

    def lookup_prefix(self, prefix, *, client: str = "anonymous") -> ApiResponse:
        """The covering VRPs of *prefix* (any origin), least-specific first."""
        text = str(prefix)
        return self._serve("lookup_prefix", text, client,
                           QueryService._covering, prefix, text)

    def lookup_asn(self, asn, *, client: str = "anonymous") -> ApiResponse:
        """Every VRP authorizing origin *asn*, sorted."""
        return self._serve("lookup_asn", f"AS{int(asn)}", client,
                           QueryService._by_asn, asn)

    def validate_route(
        self, prefix, origin, *, client: str = "anonymous"
    ) -> ApiResponse:
        """RFC 6811 validation of one announcement, with evidence."""
        return self._serve("validate", f"{prefix}|AS{int(origin)}", client,
                           QueryService._validated, prefix, origin)

    def history(self, *, client: str = "anonymous") -> ApiResponse:
        """The served-epoch ring, oldest first (bounded by HISTORY_DEPTH)."""
        return self._serve("history", "history", client,
                           QueryService._ring, by_serial=True)

    def diff(
        self, from_serial: int, to_serial: int | None = None,
        *, client: str = "anonymous",
    ) -> ApiResponse:
        """Net VRP change between two served epochs.

        Epochs older than the history window answer ``unknown-serial`` —
        the bounded-memory tradeoff, mirroring an RTR cache's Cache Reset
        when a router is too far behind.
        """
        current = self.serial           # adopts any pending refresh
        to_serial = current if to_serial is None else to_serial
        oldest = self._history[0].serial
        if not (oldest - 1 <= from_serial <= to_serial <= current):
            return self._refuse("diff", QueryStatus.UNKNOWN_SERIAL)
        return self._serve("diff", f"diff|{from_serial}|{to_serial}", client,
                           QueryService._net_diff, from_serial, to_serial,
                           by_serial=True)

    # -- what a miss computes: (payload, VRPs in it) ---------------------------

    def _covering(self, prefix, text: str):
        if not isinstance(prefix, Prefix):
            prefix = Prefix.parse(text)
        payload = self._vrps.covering(prefix)
        return payload, len(payload)

    def _by_asn(self, asn):
        number = int(asn)
        ASN(number)  # refuses what validate_route refuses, in its words
        payload = self._vrps.by_asn(number)
        return payload, len(payload)

    def _validated(self, prefix, origin):
        outcome = validate(prefix, origin, self._vrps)
        return outcome, len(outcome.covering)

    def _ring(self):
        return tuple(self._history), 0

    def _net_diff(self, from_serial: int, to_serial: int):
        """Fold per-epoch deltas into one net added/removed pair.

        A VRP added then removed (or vice versa) inside the window cancels
        out, so the diff describes the *net* change — what a monitor
        comparing only the endpoints would see.
        """
        net_added: set[VRP] = set()
        net_removed: set[VRP] = set()
        for entry in self._history:
            if from_serial < entry.serial <= to_serial:
                _fold(net_added, net_removed, entry.added, entry.removed)
        payload = VrpDiff(
            from_serial=from_serial,
            to_serial=to_serial,
            added=tuple(sorted(net_added)),
            removed=tuple(sorted(net_removed)),
        )
        return payload, len(payload.added) + len(payload.removed)

    # -- introspection -------------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """The response cache's (hits, misses, evictions)."""
        return self._cache.stats


def _fold(
    net_added: set[VRP], net_removed: set[VRP],
    added: Iterable[VRP], removed: Iterable[VRP],
) -> None:
    """Fold one delta into a running net change, in place."""
    for vrp in added:
        if vrp in net_removed:
            net_removed.discard(vrp)
        else:
            net_added.add(vrp)
    for vrp in removed:
        if vrp in net_added:
            net_added.discard(vrp)
        else:
            net_removed.add(vrp)
