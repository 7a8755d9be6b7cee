"""Simulated time.

Expiry is a first-class failure mode in the paper (Side Effect 6: "the
renewal of an expiring ROA could be delayed (accidentally or maliciously)"),
so every component that looks at validity windows takes an injected
:class:`Clock` instead of reading the wall clock.  Tests and benchmarks
advance time explicitly; nothing in the library calls ``time.time()``.

Timestamps are plain integers (seconds since the simulation epoch).
"""

from __future__ import annotations

__all__ = ["Clock", "HOUR", "DAY", "YEAR"]

HOUR = 3600
DAY = 24 * HOUR
YEAR = 365 * DAY


class Clock:
    """A monotonically advancing simulated clock, started at the epoch."""

    __slots__ = ("_now",)

    def __init__(self):
        self._now = 0

    @property
    def now(self) -> int:
        """Current simulated time in seconds since the epoch."""
        return self._now

    def advance(self, seconds: int) -> int:
        """Move time forward by *seconds*; returns the new time.

        Moving backwards is rejected — the simulation relies on
        monotonicity for cache staleness and expiry semantics.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance by a negative amount: {seconds}")
        self._now += seconds
        return self._now

    def at_least(self, timestamp: int) -> int:
        """Advance to *timestamp* if it is in the future; returns now."""
        if timestamp > self._now:
            self._now = timestamp
        return self._now

    def __repr__(self) -> str:
        return f"Clock(now={self._now})"
