"""Deterministic retry, timeout, backoff, and circuit breaking for fetches.

The paper's Section 6 observes that RPKI object delivery rides on the
very routes it protects; later work showed the *availability* half of
that risk in practice: a publication point that answers slowly (Stalloris)
degrades a relying party just as surely as one that is unreachable,
because the RP burns its refresh interval waiting.  This module is the
defensive half — the one policy a resilient
:class:`~repro.repository.fetch.Fetcher` (``Fetcher(..., resilient=True)``)
uses to bound how much simulated time a misbehaving authority can cost:

- a per-attempt deadline and a retry cap (:data:`ATTEMPT_DEADLINE`,
  :data:`MAX_ATTEMPTS`), with capped exponential :func:`backoff` under
  *deterministic* jitter (hash of the target URI and attempt number, no
  wall clock, no shared RNG), so two runs of the same scenario advance
  the simulated clock identically;
- :class:`CircuitBreaker` — a per-host breaker that stops paying the
  deadline for a host that keeps failing, probes it again after
  :data:`RESET_TIMEOUT` (half-open), and records every state transition
  for telemetry.

Everything here is pure policy over integers: no I/O, no wall clock,
nothing non-deterministic.  See ``docs/resilience.md`` for the numbers
and a worked walkthrough.
"""

from __future__ import annotations

import enum
import hashlib

__all__ = [
    "ATTEMPT_DEADLINE",
    "BreakerState",
    "CircuitBreaker",
    "FAILURE_THRESHOLD",
    "MAX_ATTEMPTS",
    "RESET_TIMEOUT",
    "WORST_CASE_SECONDS",
    "backoff",
]

# All durations are simulated seconds.
MAX_ATTEMPTS = 3          # tries per fetch_point call
ATTEMPT_DEADLINE = 30     # what one stalled or too-slow attempt burns
BASE_BACKOFF = 4          # wait before the first retry
BACKOFF_MULTIPLIER = 2    # growth per retry
MAX_BACKOFF = 60          # backoff cap
JITTER_FRACTION = 0.25    # ± share of each backoff, derived from the salt
FAILURE_THRESHOLD = 5     # consecutive failures that open a host's breaker
RESET_TIMEOUT = 600       # seconds a breaker stays open before one probe


def _raw_backoff(retry: int) -> int:
    return min(MAX_BACKOFF, BASE_BACKOFF * BACKOFF_MULTIPLIER ** (retry - 1))


def backoff(retry: int, salt: str = "") -> int:
    """Seconds to wait before retry number *retry* (1-based).

    ``min(MAX_BACKOFF, BASE_BACKOFF * BACKOFF_MULTIPLIER ** (retry - 1))``
    jittered by up to ``±JITTER_FRACTION`` of itself.  The jitter is
    SHA-256 of the salt (in practice the publication-point URI) and the
    retry number, so retries desynchronize across points without making
    runs irreproducible.
    """
    if retry < 1:
        raise ValueError(f"retry numbers start at 1: {retry}")
    raw = _raw_backoff(retry)
    digest = hashlib.sha256(f"{salt}|{retry}".encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
    jitter = raw * JITTER_FRACTION * (2.0 * unit - 1.0)
    return max(0, int(round(raw + jitter)))


# Upper bound on simulated seconds one resilient ``fetch_point`` can cost:
# every attempt missing its deadline, every backoff at maximum jitter
# (plus rounding slack).  The resilience benchmark asserts a stalled
# authority never costs a refresh more than this.
WORST_CASE_SECONDS = MAX_ATTEMPTS * ATTEMPT_DEADLINE + sum(
    int(_raw_backoff(retry) * (1.0 + JITTER_FRACTION)) + 1
    for retry in range(1, MAX_ATTEMPTS)
)


class BreakerState(enum.Enum):
    """Circuit-breaker states, classic three-state machine."""

    CLOSED = "closed"        # traffic flows; consecutive failures counted
    OPEN = "open"            # host is skipped until the reset timeout passes
    HALF_OPEN = "half-open"  # one probe: success closes, failure reopens


class CircuitBreaker:
    """Per-host failure accounting with open/half-open/closed transitions.

    A pure state machine over simulated timestamps: the fetcher calls
    :meth:`allow` before an attempt and :meth:`record` after, and both
    return the new :class:`BreakerState` when a transition happened (for
    the fetcher's telemetry counter) or ``None`` when nothing changed.
    Transitions are also kept in :attr:`transitions` as
    ``(timestamp, state)`` pairs for inspection and artifacts.
    """

    def __init__(self, host: str):
        self.host = host
        self.state = BreakerState.CLOSED
        self.failures = 0    # consecutive failures while CLOSED
        self.opened_at = -1
        self.transitions: list[tuple[int, BreakerState]] = []

    def _move(self, state: BreakerState, now: int) -> BreakerState:
        self.state = state
        self.transitions.append((now, state))
        return state

    def allow(self, now: int) -> tuple[bool, BreakerState | None]:
        """May the host be contacted at *now*?  -> (allowed, transition)."""
        if self.state is BreakerState.CLOSED:
            return True, None
        if self.state is BreakerState.OPEN \
                and now - self.opened_at >= RESET_TIMEOUT:
            return True, self._move(BreakerState.HALF_OPEN, now)
        # Open, or half-open with its one probe not yet recorded: a host
        # that has not proven itself is not re-flooded.
        return False, None

    def record(self, ok: bool, now: int) -> BreakerState | None:
        """Fold one attempt outcome in; returns the transition, if any."""
        if ok:
            self.failures = 0
            if self.state is BreakerState.HALF_OPEN:
                return self._move(BreakerState.CLOSED, now)
            return None
        if self.state is BreakerState.HALF_OPEN:
            self.opened_at = now
            return self._move(BreakerState.OPEN, now)
        self.failures += 1
        if (
            self.state is BreakerState.CLOSED
            and self.failures >= FAILURE_THRESHOLD
        ):
            self.opened_at = now
            return self._move(BreakerState.OPEN, now)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker(host={self.host!r}, state={self.state.value}, "
            f"failures={self.failures})"
        )
