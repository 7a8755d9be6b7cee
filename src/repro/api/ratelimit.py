"""Deterministic token-bucket rate limiting on the simulated clock.

The classic token bucket, with one twist: refill is a *pure function* of
the simulated timestamp (``tokens + elapsed * refill_per_second``, capped
at the burst capacity), never of wall time.  Two identical runs therefore
admit and reject exactly the same request sequence, which is what lets
the chaos campaign and the API benchmark assert on rate-limiter behavior
instead of sampling it.

A bucket starts full — a client's first burst is its capacity — and the
arithmetic is floating point so fractional refill rates (e.g. one token
per 10 simulated seconds) work without a scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RateLimitConfig", "TokenBucket"]


@dataclass(frozen=True)
class RateLimitConfig:
    """Per-client token-bucket shape: burst capacity + refill rate."""

    capacity: float = 100.0        # max tokens (= largest admissible burst)
    refill_per_second: float = 25.0  # tokens regained per simulated second

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive: {self.capacity}")
        if self.refill_per_second < 0:
            raise ValueError(
                f"refill rate cannot be negative: {self.refill_per_second}"
            )


class TokenBucket:
    """One client's bucket; time is always passed in, never read."""

    __slots__ = ("config", "_tokens", "_last")

    def __init__(self, config: RateLimitConfig, *, now: int = 0):
        self.config = config
        self._tokens = config.capacity
        self._last = now

    def _refill(self, now: int) -> None:
        if now > self._last:
            self._tokens = min(
                self.config.capacity,
                self._tokens + (now - self._last) * self.config.refill_per_second,
            )
        self._last = max(self._last, now)

    def try_acquire(self, now: int) -> bool:
        """Spend one token if available; False means rate-limited."""
        self._refill(now)
        if self._tokens >= 1:
            self._tokens -= 1
            return True
        return False
