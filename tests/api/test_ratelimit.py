"""Token-bucket rate limiting: deterministic, clock-driven, bounded."""

import pytest

from repro.api import RateLimitConfig, TokenBucket


class TestConfig:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RateLimitConfig(capacity=0)

    def test_rejects_negative_refill(self):
        with pytest.raises(ValueError):
            RateLimitConfig(refill_per_second=-1)

    def test_zero_refill_is_legal(self):
        # A pure burst allowance: tokens never come back.
        RateLimitConfig(capacity=5, refill_per_second=0)


class TestTokenBucket:
    def test_starts_full(self):
        bucket = TokenBucket(RateLimitConfig(capacity=3, refill_per_second=1))
        admitted = [bucket.try_acquire(0) for _ in range(4)]
        assert admitted == [True, True, True, False]

    def test_burst_then_rejects(self):
        bucket = TokenBucket(RateLimitConfig(capacity=3, refill_per_second=0))
        admitted = [bucket.try_acquire(0) for _ in range(5)]
        assert admitted == [True, True, True, False, False]

    def test_refill_is_a_pure_function_of_elapsed_time(self):
        config = RateLimitConfig(capacity=10, refill_per_second=2)
        bucket = TokenBucket(config)
        for _ in range(10):
            assert bucket.try_acquire(0)
        assert not bucket.try_acquire(0)
        # 3 seconds => 6 tokens back, capped later at capacity.
        admitted = [bucket.try_acquire(3) for _ in range(7)]
        assert admitted == [True] * 6 + [False]

    def test_refill_caps_at_capacity(self):
        bucket = TokenBucket(RateLimitConfig(capacity=4, refill_per_second=1))
        bucket.try_acquire(0)
        admitted = [bucket.try_acquire(1000) for _ in range(5)]
        assert admitted == [True] * 4 + [False]

    def test_time_never_runs_backwards(self):
        # A stale timestamp must not refund tokens nor corrupt state.
        bucket = TokenBucket(RateLimitConfig(capacity=2, refill_per_second=1),
                             now=10)
        assert bucket.try_acquire(10)
        assert bucket.try_acquire(10)
        assert not bucket.try_acquire(5)
        # One second after the last real instant: exactly one token back.
        assert [bucket.try_acquire(11) for _ in range(2)] == [True, False]

    def test_fractional_rates(self):
        # One token per 10 simulated seconds.
        bucket = TokenBucket(RateLimitConfig(capacity=1,
                                             refill_per_second=0.1))
        assert bucket.try_acquire(0)
        assert not bucket.try_acquire(5)
        assert bucket.try_acquire(10)

    def test_identical_sequences_admit_identically(self):
        config = RateLimitConfig(capacity=5, refill_per_second=1)
        times = [0, 0, 0, 1, 1, 2, 7, 7, 7, 7, 7, 7, 20]

        def run():
            bucket = TokenBucket(config)
            return [bucket.try_acquire(t) for t in times]

        assert run() == run()
