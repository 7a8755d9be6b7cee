"""The query plane's request path before it was made lean — an oracle.

``QueryService``'s constructor, rate limiter and request path, its
``ResponseCache`` and its frozen-dataclass ``ApiResponse`` as they read
before the one-tally, closure-free path: verbatim, except that the
service subclasses the shipped one to inherit the epoch code (refresh,
sync, serial, content hash), which did not change.  That path counted
every hit and miss twice — into the cache's ``CacheStats`` and into
``repro_api_cache_total`` — and counted the miss before computing the
answer, so a query that raised still booked one.  One deliberate fix is
made here too: ``lookup_asn`` refuses an AS number out of range, as
``validate_route`` always did, where the old path answered ``ok ()`` and
cached that answer.  It raises inside the answer, after the rate limit
and the booked miss, as ``validate_route`` does on this path.
``test_request_path.py`` replays one request sequence through both.
Not used by ``src/``.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.api import service as service_module
from repro.api.ratelimit import TokenBucket
from repro.api.service import (
    _MAX_TRACKED_CLIENTS,
    RESPONSE_VRP_BUCKETS,
    ApiConfig,
    HistoryEntry,
    QueryService,
    QueryStatus,
    VrpDiff,
    _fold,
)
from repro.resources import ASN
from repro.rp.origin import validate
from repro.telemetry import default_registry

_MISS = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class ResponseCache:
    """A bounded LRU mapping ``(content_hash, query...)`` keys to answers."""

    __slots__ = ("capacity", "stats", "_entries")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def get(self, key: Hashable):
        value = self._entries.get(key, _MISS)
        if value is _MISS:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1


@dataclass(frozen=True)
class ApiResponse:
    """Envelope every endpoint returns."""

    status: str                  # a QueryStatus constant
    serial: int                  # served epoch
    content_hash: str            # VRP set fingerprint the answer is for
    payload: object              # endpoint-specific; None unless OK
    cached: bool                 # answered from the response cache

    @property
    def ok(self) -> bool:
        return self.status == QueryStatus.OK


class ReferenceQueryService(QueryService):
    def __init__(self, rp, *, config=None, metrics=None):
        self.rp = rp
        self.config = config if config is not None else ApiConfig()
        self._clock = rp.clock
        self.metrics = metrics if metrics is not None else default_registry()
        self._cache = ResponseCache(self.config.cache_capacity)
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self._history: deque[HistoryEntry] = deque(
            maxlen=service_module.HISTORY_DEPTH
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
        self._m_requests = self.metrics.counter(
            "repro_api_requests_total",
            help="query-plane requests, by endpoint kind and outcome",
            labelnames=("kind", "status"),
        )
        self._bound_requests: dict[tuple[str, str], object] = {}
        cache_metric = self.metrics.counter(
            "repro_api_cache_total",
            help="response-cache lookups, by result",
            labelnames=("result",),
        )
        self._m_cache_hit = cache_metric.labels(result="hit")
        self._m_cache_miss = cache_metric.labels(result="miss")
        self._m_response_vrps = self.metrics.histogram(
            "repro_api_response_vrps",
            buckets=RESPONSE_VRP_BUCKETS,
            help="VRPs per served answer (response-size distribution)",
        ).sample()
        self._pending_added = set()
        self._pending_removed = set()
        self._stale = False
        rp.subscribe(self._on_refresh)
        self._vrps = rp.vrps
        self._hash = self._vrps.content_hash()
        self._serial = 0
        self._history.append(HistoryEntry(
            serial=0,
            timestamp=self._clock.now,
            content_hash=self._hash,
            vrp_count=len(self._vrps),
            added=tuple(self._vrps),
            removed=(),
        ))

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

    def _count_request(self, kind: str, status: str) -> None:
        child = self._bound_requests.get((kind, status))
        if child is None:
            child = self._bound_requests[(kind, status)] = (
                self._m_requests.labels(kind=kind, status=status)
            )
        child.inc()

    def _serve(self, kind, query_key, compute, size_of, client,
               *, by_serial=False):
        self._sync()
        if not self._allow(client, self._clock.now):
            self._count_request(kind, QueryStatus.RATE_LIMITED)
            self._m_rate_limited.inc()
            return ApiResponse(
                status=QueryStatus.RATE_LIMITED, serial=self._serial,
                content_hash=self._hash, payload=None, cached=False,
            )
        key = (self._serial if by_serial else self._hash, kind, query_key)
        payload = self._cache.get(key)
        cached = payload is not None
        if cached:
            self._m_cache_hit.inc()
        else:
            self._m_cache_miss.inc()
            payload = compute()
            self._cache.put(key, payload)
        self._count_request(kind, QueryStatus.OK)
        self._m_response_vrps.observe(float(size_of(payload)))
        return ApiResponse(
            status=QueryStatus.OK, serial=self._serial,
            content_hash=self._hash, payload=payload, cached=cached,
        )

    def cache_stats(self):
        stats = self._cache.stats
        return stats.hits, stats.misses, stats.evictions

    def lookup_prefix(self, prefix, *, client: str = "anonymous"):
        return self._serve(
            "lookup_prefix", str(prefix),
            lambda: tuple(self._vrps.covering(_as_prefix(prefix))),
            len, client,
        )

    def lookup_asn(self, asn, *, client: str = "anonymous"):
        return self._serve(
            "lookup_asn", f"AS{int(asn)}",
            lambda: self._vrps.by_asn(ASN(int(asn))),
            len, client,
        )

    def validate_route(self, prefix, origin, *, client: str = "anonymous"):
        return self._serve(
            "validate", f"{prefix}|AS{int(origin)}",
            lambda: validate(prefix, origin, self._vrps),
            lambda outcome: len(outcome.covering),
            client,
        )

    def history(self, *, client: str = "anonymous"):
        return self._serve(
            "history", "history",
            lambda: tuple(self._history),
            lambda payload: 0,
            client, by_serial=True,
        )

    def diff(self, from_serial, to_serial=None, *, client="anonymous"):
        current = self.serial           # adopts any pending refresh
        to_serial = current if to_serial is None else to_serial
        oldest = self._history[0].serial
        if not (oldest - 1 <= from_serial <= to_serial <= current):
            self._count_request("diff", QueryStatus.UNKNOWN_SERIAL)
            return ApiResponse(
                status=QueryStatus.UNKNOWN_SERIAL, serial=current,
                content_hash=self._hash, payload=None, cached=False,
            )
        return self._serve(
            "diff", f"diff|{from_serial}|{to_serial}",
            lambda: _net_diff(from_serial, to_serial, (
                e for e in self._history
                if from_serial < e.serial <= to_serial
            )),
            lambda payload: len(payload.added) + len(payload.removed),
            client, by_serial=True,
        )


def _as_prefix(prefix):
    from repro.resources import Prefix

    return prefix if isinstance(prefix, Prefix) else Prefix.parse(str(prefix))


def _net_diff(
    from_serial: int, to_serial: int, entries: Iterable[HistoryEntry]
) -> VrpDiff:
    net_added: set = set()
    net_removed: set = set()
    for entry in entries:
        _fold(net_added, net_removed, entry.added, entry.removed)
    return VrpDiff(
        from_serial=from_serial,
        to_serial=to_serial,
        added=tuple(sorted(net_added)),
        removed=tuple(sorted(net_removed)),
    )
