"""Unit tests for the resilience layer: retry, backoff, breaker, grace.

Covers the policy objects in isolation (pure state machines), the
Fetcher's retry loop and deadline handling, the cache's grace-window
classifications, and the FetchResult edge cases the issue calls out:
an *empty* publication point (empty is not missing) and an unknown host
once its breaker has opened.
"""

import pytest

from repro.repository import (
    PERSISTENT,
    BreakerState,
    CacheFreshness,
    CircuitBreaker,
    FaultInjector,
    FaultKind,
    Fetcher,
    FetchResult,
    FetchStatus,
    HostLocator,
    LocalCache,
    RepositoryRegistry,
)
from repro.repository.resilience import (
    ATTEMPT_DEADLINE,
    FAILURE_THRESHOLD,
    MAX_ATTEMPTS,
    RESET_TIMEOUT,
    WORST_CASE_SECONDS,
    backoff,
)
from repro.simtime import Clock
from repro.telemetry import MetricsRegistry

from ..helpers import all_files


def make_world(files=(("a.roa", b"payload"),)):
    registry = RepositoryRegistry()
    server = registry.create_server(
        "continental", HostLocator.parse("63.174.23.0", 17054)
    )
    point = server.mount("rsync://continental/repo/")
    for name, data in files:
        point.put(name, data)
    return registry, point


def make_fetcher(registry, *, faults=None, resilient=False, **kw):
    return Fetcher(
        registry, Clock(), faults=faults, resilient=resilient,
        metrics=MetricsRegistry(), **kw,
    )


URI = "rsync://continental/repo/"
SALTS = [f"rsync://host{i}.example/repo/" for i in range(32)]


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        # 4 s doubling per retry, capped at 60 s, each within ±25 % (+1 s
        # of rounding) of that: retry 9 would be 1024 s uncapped.
        for retry, raw in ((1, 4), (2, 8), (3, 16), (5, 60), (9, 60)):
            for salt in SALTS:
                assert abs(backoff(retry, salt=salt) - raw) <= raw * 0.25 + 1

    def test_jitter_is_deterministic_and_bounded(self):
        for retry in (1, 2, 5):
            first = backoff(retry, salt="rsync://x/")
            assert first == backoff(retry, salt="rsync://x/")
            raw = min(60, 4 * 2 ** (retry - 1))
            assert abs(first - raw) <= raw * 0.25 + 1

    def test_jitter_varies_with_salt(self):
        values = {backoff(4, salt=salt) for salt in SALTS[:16]}
        assert len(values) > 1  # retries desynchronize across points

    def test_worst_case_bounds_every_schedule(self):
        for salt in SALTS:
            total = MAX_ATTEMPTS * ATTEMPT_DEADLINE + sum(
                backoff(retry, salt=salt) for retry in range(1, MAX_ATTEMPTS)
            )
            assert total <= WORST_CASE_SECONDS
        # 3 x 30 s deadlines + (4 + 1) + (8 + 3) s of backoff at most.
        assert WORST_CASE_SECONDS == 107

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            backoff(0)
        # The policy is one fixed schedule: the knob objects are gone.
        import repro
        import repro.repository as repository
        for name in ("RetryPolicy", "BreakerPolicy", "ResilienceConfig"):
            assert not hasattr(repository, name)
            assert not hasattr(repro, name)
        with pytest.raises(ImportError):
            from repro.repository.resilience import RetryPolicy  # noqa: F401

    def test_jitter_is_pinned_across_runs(self):
        # The jitter is SHA-256 of (salt, retry) — no interpreter state,
        # no PYTHONHASHSEED dependence — so the schedule is a constant of
        # the codebase.  These golden values catch algorithm drift.
        assert [backoff(r, salt=URI) for r in (1, 2)] == [5, 7]


def opened(at=0):
    """A breaker that just opened at *at*."""
    breaker = CircuitBreaker("h")
    for _ in range(FAILURE_THRESHOLD):
        breaker.record(False, at)
    assert breaker.state is BreakerState.OPEN
    return breaker


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("h")
        for now in range(FAILURE_THRESHOLD - 1):
            assert breaker.record(False, now) is None
        assert breaker.record(False, 9) is BreakerState.OPEN
        assert breaker.allow(10) == (False, None)

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker("h")
        for now in range(FAILURE_THRESHOLD - 1):
            breaker.record(False, now)
        breaker.record(True, 10)
        for now in range(FAILURE_THRESHOLD - 1):  # streak restarted
            assert breaker.record(False, 11 + now) is None
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_then_close(self):
        breaker = opened(at=0)
        assert breaker.allow(RESET_TIMEOUT - 1) == (False, None)
        allowed, transition = breaker.allow(RESET_TIMEOUT)
        assert allowed and transition is BreakerState.HALF_OPEN
        assert breaker.record(True, RESET_TIMEOUT + 1) is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = opened(at=0)
        breaker.allow(RESET_TIMEOUT)
        assert breaker.record(False, 611) is BreakerState.OPEN
        assert breaker.opened_at == 611  # reset timer restarts from the probe
        assert breaker.allow(612) == (False, None)
        assert [state for _, state in breaker.transitions] == [
            BreakerState.OPEN, BreakerState.HALF_OPEN, BreakerState.OPEN,
        ]

    def test_half_open_admits_only_the_policy_probe_count(self):
        # The re-entry edge case: before the probe's outcome is recorded,
        # further allow() calls must NOT be admitted — a half-open
        # breaker grants exactly one in-flight probe, not unlimited
        # traffic.
        breaker = opened(at=0)
        allowed, transition = breaker.allow(RESET_TIMEOUT)
        assert allowed and transition is BreakerState.HALF_OPEN
        assert breaker.allow(RESET_TIMEOUT) == (False, None)  # in flight
        assert breaker.allow(RESET_TIMEOUT + 1) == (False, None)
        assert breaker.record(True, RESET_TIMEOUT + 2) is BreakerState.CLOSED
        assert breaker.allow(RESET_TIMEOUT + 3) == (True, None)  # closed

    def test_reopen_after_probe_failure_resets_probe_accounting(self):
        breaker = opened(at=0)
        breaker.allow(RESET_TIMEOUT)
        assert breaker.record(False, 611) is BreakerState.OPEN
        # The next half-open episode starts with a fresh probe grant.
        assert breaker.allow(611 + RESET_TIMEOUT - 1) == (False, None)
        allowed, transition = breaker.allow(611 + RESET_TIMEOUT)
        assert allowed and transition is BreakerState.HALF_OPEN
        assert breaker.allow(611 + RESET_TIMEOUT) == (False, None)
        assert breaker.record(True, 1300) is BreakerState.CLOSED


class TestFetcherRetries:
    def test_plain_fetcher_single_attempt(self):
        registry, _ = make_world()
        faults = FaultInjector()
        faults.schedule(FaultKind.UNREACHABLE, URI, count=2)
        fetcher = make_fetcher(registry, faults=faults)
        result = fetcher.fetch_point(URI)
        assert result.status is FetchStatus.FAULTED
        assert result.attempts == 1 and result.elapsed == 0

    def test_retry_recovers_from_transient_fault(self):
        registry, _ = make_world()
        faults = FaultInjector()
        faults.schedule(FaultKind.FLAKY, URI, count=1)  # first attempt only
        fetcher = make_fetcher(registry, faults=faults, resilient=True)
        result = fetcher.fetch_point(URI)
        assert result.ok and result.attempts == 2
        assert result.elapsed > 0  # the backoff wait advanced the clock
        assert fetcher.metrics.get("repro_fetch_retries_total").value() == 1

    def test_stall_burns_exactly_the_deadline_per_attempt(self):
        registry, _ = make_world()
        faults = FaultInjector()
        faults.schedule(FaultKind.STALL, URI, count=PERSISTENT)
        fetcher = make_fetcher(registry, faults=faults, resilient=True)
        result = fetcher.fetch_point(URI)
        assert result.status is FetchStatus.TIMEOUT
        assert result.attempts == MAX_ATTEMPTS == 3
        # deadline, backoff, deadline, backoff, deadline
        assert result.elapsed == 30 + 5 + 30 + 7 + 30
        misses = fetcher.metrics.get("repro_fetch_deadline_misses_total")
        assert misses.value() == 3

    def test_delay_within_deadline_succeeds_and_costs_time(self):
        registry, _ = make_world()
        faults = FaultInjector()
        faults.schedule(FaultKind.DELAY, URI, delay_seconds=10)
        fetcher = make_fetcher(registry, faults=faults, resilient=True)
        result = fetcher.fetch_point(URI)
        assert result.ok and result.elapsed == 10
        assert fetcher.clock.now == 10

    def test_delay_past_deadline_times_out(self):
        registry, _ = make_world()
        faults = FaultInjector()
        faults.schedule(FaultKind.DELAY, URI, delay_seconds=50, count=1)
        fetcher = make_fetcher(registry, faults=faults, resilient=True)
        result = fetcher.fetch_point(URI)
        # First attempt times out (50 > 30), second succeeds (fault spent).
        assert result.ok and result.attempts == 2

    def test_unprotected_fetcher_pays_full_timeout_on_stall(self):
        registry, _ = make_world()
        faults = FaultInjector()
        faults.schedule(FaultKind.STALL, URI, count=PERSISTENT)
        fetcher = make_fetcher(registry, faults=faults)
        result = fetcher.fetch_point(URI)
        assert result.status is FetchStatus.TIMEOUT
        assert result.elapsed == fetcher.attempt_timeout

    def test_breaker_opens_and_short_circuits(self):
        registry, _ = make_world()
        faults = FaultInjector()
        faults.schedule(FaultKind.STALL, URI, count=PERSISTENT)
        fetcher = make_fetcher(registry, faults=faults, resilient=True)
        first = fetcher.fetch_point(URI)
        assert first.status is FetchStatus.TIMEOUT  # 3 failures
        second = fetcher.fetch_point(URI)
        # The fifth failure opens the breaker; the third try is skipped.
        assert second.status is FetchStatus.BREAKER_OPEN
        assert second.attempts == 2
        third = fetcher.fetch_point(URI)
        assert third.status is FetchStatus.BREAKER_OPEN
        assert third.attempts == 0 and third.elapsed == 0
        skips = fetcher.metrics.get("repro_fetch_breaker_skips_total")
        assert skips.value() == 2
        transitions = fetcher.metrics.get("repro_breaker_transitions_total")
        assert transitions.value(state="open") == 1

    def test_breaker_probe_after_reset_timeout(self):
        registry, point = make_world()
        faults = FaultInjector()
        stall = faults.schedule(FaultKind.STALL, URI, count=PERSISTENT)
        fetcher = make_fetcher(registry, faults=faults, resilient=True)
        fetcher.fetch_point(URI)
        assert fetcher.fetch_point(URI).status is FetchStatus.BREAKER_OPEN
        assert fetcher.breakers["continental"].state is BreakerState.OPEN
        stall.remaining = 0  # authority recovers
        fetcher.clock.advance(RESET_TIMEOUT)
        result = fetcher.fetch_point(URI)  # half-open probe succeeds
        assert result.ok
        assert fetcher.breakers["continental"].state is BreakerState.CLOSED


class TestFetchResultEdgeCases:
    def test_empty_publication_point_is_ok_not_missing(self):
        registry, _ = make_world(files=())
        fetcher = make_fetcher(registry)
        result = fetcher.fetch_point(URI)
        assert result.ok and result.files == {}
        # The cache serves the empty point: to the validator it is an
        # empty directory, not missing information.
        cache = LocalCache(metrics=MetricsRegistry())
        cache.update(result)
        assert all_files(cache) == {URI: {}}
        assert all_files(cache, now=0) == {URI: {}}

    def test_unknown_host_is_not_retried(self):
        registry, _ = make_world()
        fetcher = make_fetcher(registry, resilient=True)
        result = fetcher.fetch_point("rsync://no-such-host/repo/")
        assert result.status is FetchStatus.UNKNOWN_HOST
        assert result.attempts == 1  # permanent within a refresh: no retry

    def test_unknown_host_after_breaker_open(self):
        registry, _ = make_world()
        fetcher = make_fetcher(registry, resilient=True)
        uri = "rsync://no-such-host/repo/"
        for _ in range(FAILURE_THRESHOLD):
            assert fetcher.fetch_point(uri).status is FetchStatus.UNKNOWN_HOST
        after = fetcher.fetch_point(uri)
        assert after.status is FetchStatus.BREAKER_OPEN
        assert after.attempts == 0 and after.files == {}
        assert fetcher.breakers["no-such-host"].state is BreakerState.OPEN


class TestCacheGraceWindow:
    def fill(self, cache, at=0):
        cache.update(FetchResult(URI, FetchStatus.OK, {"a.roa": b"x"},
                                 fetched_at=at))

    def fail(self, cache, at):
        cache.update(FetchResult(URI, FetchStatus.TIMEOUT, fetched_at=at))

    def test_fresh_stale_expired_never(self):
        cache = LocalCache(stale_grace=100, metrics=MetricsRegistry())
        self.fill(cache, at=0)
        assert cache.classify(0)[URI] is CacheFreshness.FRESH
        self.fail(cache, at=50)
        assert cache.classify(50)[URI] is CacheFreshness.STALE
        assert cache.classify(101)[URI] is CacheFreshness.EXPIRED
        other = LocalCache(metrics=MetricsRegistry())
        other.update(FetchResult(URI, FetchStatus.TIMEOUT, fetched_at=5))
        assert other.classify(5)[URI] is CacheFreshness.NEVER

    def test_expired_points_withheld_from_validator(self):
        metrics = MetricsRegistry()
        cache = LocalCache(stale_grace=100, metrics=metrics)
        self.fill(cache, at=0)
        self.fail(cache, at=50)
        assert URI in all_files(cache, now=50)  # stale but in grace: served
        assert metrics.get("repro_cache_stale_serves_total").value() == 1
        assert all_files(cache, now=200) == {}  # grace over: withheld
        assert metrics.get("repro_cache_expired_drops_total").value() == 1

    def test_no_grace_serves_stale_forever(self):
        cache = LocalCache(metrics=MetricsRegistry())
        self.fill(cache, at=0)
        self.fail(cache, at=50)
        assert URI in all_files(cache, now=10**9)
        assert cache.classify(10**9)[URI] is CacheFreshness.STALE


class TestCacheSnapshot:
    """The zero-copy serving view streaming refresh validates from."""

    def fill(self, cache, at=0):
        cache.update(FetchResult(URI, FetchStatus.OK, {"a.roa": b"x"},
                                 fetched_at=at))

    def fail(self, cache, at):
        cache.update(FetchResult(URI, FetchStatus.TIMEOUT, fetched_at=at))

    def test_mirrors_all_files(self):
        cache = LocalCache(metrics=MetricsRegistry())
        self.fill(cache, at=0)
        snap = cache.snapshot()
        assert dict(snap.items()) == all_files(cache)
        assert len(snap) == 1 and URI in snap
        assert list(snap) == [URI]
        assert snap.get("rsync://nobody/repo/") is None

    def test_serves_references_not_copies(self):
        cache = LocalCache(metrics=MetricsRegistry())
        self.fill(cache, at=0)
        snap = cache.snapshot()
        # all_files() copies each per-point dict; snapshot() must not.
        assert snap[URI] is cache.point(URI).files
        assert all_files(cache)[URI] is not cache.point(URI).files

    def test_never_fetched_omitted(self):
        cache = LocalCache(metrics=MetricsRegistry())
        self.fail(cache, at=5)  # attempted, never succeeded
        assert len(cache.snapshot()) == 0

    def test_grace_window_enforced(self):
        metrics = MetricsRegistry()
        cache = LocalCache(stale_grace=100, metrics=metrics)
        self.fill(cache, at=0)
        self.fail(cache, at=50)
        assert URI in cache.snapshot(now=50)  # stale but in grace
        assert metrics.get("repro_cache_stale_serves_total").value() == 1
        assert len(cache.snapshot(now=200)) == 0  # grace over: withheld
        assert metrics.get("repro_cache_expired_drops_total").value() == 1
