"""Origin-validation-as-a-service: the validated-data query plane.

The paper's core risk — misbehaving authorities silently changing which
routes validate — only matters to the *consumers* of validated data.
This package is that consumer surface: a request-handler service layered
over a :class:`~repro.rp.RelyingParty` that answers per-prefix and
per-ASN VRP lookups, RFC 6811 classification of arbitrary announcements
(through the unified :func:`repro.rp.origin.validate` entry point), and
history/diff queries across refreshes — all on the simulated clock, so
identical runs serve identical answers.

The serving layer is built from two production idioms:

- **Deterministic token-bucket rate limiting** per client
  (:mod:`repro.api.ratelimit`) — refill is a pure function of the
  simulated clock, so a chaos campaign replays byte-identically.
- **Bounded LRU response caching** keyed on the VRP set's content hash
  plus the query (:mod:`repro.api.cache`): a refresh that changes
  nothing keeps every entry warm, and any VRP change rotates the key so
  stale answers can never be served — the content-addressed idiom of the
  incremental engine, applied to responses.

Requests are answered in order by the one service object, and its
request / cache / response-size telemetry is labelled by endpoint and
outcome only.  There is no request routing: a partition of the query-key
space that shares one thread and one VRP index is not a unit of work.

See docs/api_service.md for the walkthrough and
``benchmarks/test_bench_api.py`` for the sustained-throughput pin and
the served-answers-match-the-live-VRP-set chaos invariant.
"""

from .cache import CacheStats, ResponseCache
from .ratelimit import RateLimitConfig, TokenBucket
from .service import (
    ApiConfig,
    ApiResponse,
    HistoryEntry,
    QueryService,
    QueryStatus,
    VrpDiff,
)

__all__ = [
    "ApiConfig",
    "ApiResponse",
    "CacheStats",
    "HistoryEntry",
    "QueryService",
    "QueryStatus",
    "RateLimitConfig",
    "ResponseCache",
    "TokenBucket",
    "VrpDiff",
]
