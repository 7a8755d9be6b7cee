"""The query plane: ``QueryService`` over a relying party.

One service wraps one :class:`~repro.rp.RelyingParty` and serves five
endpoints, all deterministic on the simulated clock:

- ``lookup_prefix(prefix)`` — the covering VRPs of a prefix (any origin);
- ``lookup_asn(asn)`` — every VRP authorizing an origin AS;
- ``validate_route(prefix, origin)`` — full RFC 6811 validation with
  evidence, via the unified :func:`repro.rp.origin.validate`;
- ``history()`` — the bounded ring of refresh epochs (serial, content
  hash, added/removed VRPs);
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

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Iterable

from ..rp import RelyingParty
from ..rp.origin import OriginValidationOutcome, validate
from ..rp.vrp import VRP, VrpSet
from ..simtime import Clock
from ..telemetry import MetricsRegistry, default_registry
from .ratelimit import RateLimitConfig, TokenBucket
from .shard import ShardRouter

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


class QueryStatus:
    """Response outcomes (string constants, stable API)."""

    OK = "ok"
    RATE_LIMITED = "rate-limited"
    UNKNOWN_SERIAL = "unknown-serial"


@dataclass(frozen=True)
class ApiConfig:
    """Shape of one query service."""

    shards: int = 4                 # logical request-routing partitions
    cache_capacity: int = 4096      # response-cache entries, all shards
    history_depth: int = 32         # refresh epochs kept for diff queries
    rate_limit: RateLimitConfig | None = field(
        default_factory=RateLimitConfig
    )                               # None disables rate limiting

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"need at least one shard: {self.shards}")
        if self.history_depth < 1:
            raise ValueError(f"history depth must be >= 1: {self.history_depth}")


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


@dataclass(frozen=True)
class ApiResponse:
    """Envelope every endpoint returns."""

    status: str                  # a QueryStatus constant
    serial: int                  # served epoch
    content_hash: str            # VRP set fingerprint the answer is for
    payload: object              # endpoint-specific; None unless OK
    cached: bool                 # answered from the response cache
    shard: int                   # shard that handled the request

    @property
    def ok(self) -> bool:
        return self.status == QueryStatus.OK


class QueryService:
    """Origin-validation-as-a-service over one relying party."""

    def __init__(
        self,
        rp: RelyingParty,
        *,
        config: ApiConfig | None = None,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.rp = rp
        self.config = config if config is not None else ApiConfig()
        self._clock = clock if clock is not None else rp.clock
        self.metrics = metrics if metrics is not None else default_registry()
        self._router = ShardRouter(
            self.config.shards, self.config.cache_capacity, self.metrics
        )
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self._history: deque[HistoryEntry] = deque(
            maxlen=self.config.history_depth
        )
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
        limit = self.config.rate_limit
        if limit is None:
            return True
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = self._buckets[client] = TokenBucket(limit, now=now)
            if len(self._buckets) > _MAX_TRACKED_CLIENTS:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(client)
        return bucket.try_acquire(now)

    def _serve(self, kind, cache_epoch, query_key, compute, size_of, client):
        """The shared request path: sync, route, rate-limit, cache, count.

        *cache_epoch* is the key's first component: the content hash for
        content queries (same content → same answer, even across an
        A→B→A flap), the serial for history-shaped queries (whose answer
        depends on the ring, not just the content).
        """
        shard = self._router.route(query_key)
        if not self._allow(client, self._clock.now):
            shard.count_request(kind, QueryStatus.RATE_LIMITED)
            self._m_rate_limited.inc()
            return ApiResponse(
                status=QueryStatus.RATE_LIMITED, serial=self._serial,
                content_hash=self._hash, payload=None, cached=False,
                shard=shard.index,
            )
        key = (cache_epoch, kind, query_key)
        payload = shard.cache.get(key)
        cached = payload is not None
        shard.count_cache("hit" if cached else "miss")
        if not cached:
            payload = compute()
            shard.cache.put(key, payload)
        shard.count_request(kind, QueryStatus.OK)
        shard.observe_response_size(size_of(payload))
        return ApiResponse(
            status=QueryStatus.OK, serial=self._serial,
            content_hash=self._hash, payload=payload, cached=cached,
            shard=shard.index,
        )

    # -- endpoints -----------------------------------------------------------

    def lookup_prefix(self, prefix, *, client: str = "anonymous") -> ApiResponse:
        """The covering VRPs of *prefix* (any origin), least-specific first."""
        self._sync()
        text = str(prefix)
        vrps = self._vrps
        return self._serve(
            "lookup_prefix", self._hash, text,
            lambda: tuple(vrps.covering(_as_prefix(prefix))),
            len, client,
        )

    def lookup_asn(self, asn, *, client: str = "anonymous") -> ApiResponse:
        """Every VRP authorizing origin *asn*, sorted."""
        self._sync()
        vrps = self._vrps
        return self._serve(
            "lookup_asn", self._hash, f"AS{int(asn)}",
            lambda: vrps.by_asn(asn),
            len, client,
        )

    def validate_route(
        self, prefix, origin, *, client: str = "anonymous"
    ) -> ApiResponse:
        """RFC 6811 validation of one announcement, with evidence."""
        self._sync()
        vrps = self._vrps
        return self._serve(
            "validate", self._hash, f"{prefix}|AS{int(origin)}",
            lambda: validate(prefix, origin, vrps),
            lambda outcome: len(outcome.covering),
            client,
        )

    def history(self, *, client: str = "anonymous") -> ApiResponse:
        """The served-epoch ring, oldest first (bounded by history_depth)."""
        self._sync()
        entries = tuple(self._history)
        return self._serve(
            "history", self._serial, "history",
            lambda: entries,
            lambda payload: 0,
            client,
        )

    def diff(
        self, from_serial: int, to_serial: int | None = None,
        *, client: str = "anonymous",
    ) -> ApiResponse:
        """Net VRP change between two served epochs.

        Epochs older than the history window answer ``unknown-serial`` —
        the bounded-memory tradeoff, mirroring an RTR cache's Cache Reset
        when a router is too far behind.
        """
        self._sync()
        to_serial = self._serial if to_serial is None else to_serial
        query_key = f"diff|{from_serial}|{to_serial}"
        shard = self._router.route(query_key)
        oldest = self._history[0].serial
        if not (oldest - 1 <= from_serial <= to_serial <= self._serial):
            shard.count_request("diff", QueryStatus.UNKNOWN_SERIAL)
            return ApiResponse(
                status=QueryStatus.UNKNOWN_SERIAL, serial=self._serial,
                content_hash=self._hash, payload=None, cached=False,
                shard=shard.index,
            )
        entries = [e for e in self._history
                   if from_serial < e.serial <= to_serial]
        return self._serve(
            "diff", self._serial, query_key,
            lambda: _net_diff(from_serial, to_serial, entries),
            lambda payload: len(payload.added) + len(payload.removed),
            client,
        )

    # -- introspection -------------------------------------------------------

    def cache_stats(self):
        """Aggregated (hits, misses, evictions) across all shards."""
        return self._router.cache_stats()

    @property
    def shard_count(self) -> int:
        return len(self._router)


def _as_prefix(prefix):
    from ..resources import Prefix

    return prefix if isinstance(prefix, Prefix) else Prefix.parse(str(prefix))


def _net_diff(
    from_serial: int, to_serial: int, entries: Iterable[HistoryEntry]
) -> VrpDiff:
    """Fold per-epoch deltas into one net added/removed pair.

    A VRP added then removed (or vice versa) inside the window cancels
    out, so the diff describes the *net* change — what a monitor
    comparing only the endpoints would see.
    """
    net_added: set[VRP] = set()
    net_removed: set[VRP] = set()
    for entry in entries:
        _fold(net_added, net_removed, entry.added, entry.removed)
    return VrpDiff(
        from_serial=from_serial,
        to_serial=to_serial,
        added=tuple(sorted(net_added)),
        removed=tuple(sorted(net_removed)),
    )


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
