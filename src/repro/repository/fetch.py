"""The relying party's fetch pipeline: rsync over the simulated data plane.

"The only delivery method mandated by the RPKI is the rsync protocol,
which runs on top of TCP/IP" (paper, Section 6).  The consequence the
paper draws — RPKI objects can affect the availability of the very routes
over which they are delivered — is modeled here by one injected
dependency: a *reachability predicate* that the routing layer provides.
If the relying party currently has no usable route to a repository
server's address, the fetch fails, exactly as a TCP connection would.

Delivery can also be *slow*, not just absent: timing faults
(:data:`~repro.repository.faults.FaultKind.DELAY` /
:data:`~repro.repository.faults.FaultKind.STALL`) cost simulated seconds,
bounded by the fetcher's per-attempt deadline.  An unprotected fetcher
waits out its (long) default timeout every time — the Stalloris failure
mode — while a ``resilient`` fetcher retries with capped,
deterministically jittered backoff and trips a per-host circuit breaker
(:mod:`repro.repository.resilience`) so a misbehaving authority's cost
is bounded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from ..rpki.uri import RsyncUri
from ..simtime import HOUR, Clock
from ..telemetry import MetricsRegistry, default_registry
from .errors import UnknownHostError
from .faults import FaultInjector
from . import resilience
from .server import HostedPublicationPoint, HostLocator, RepositoryRegistry

__all__ = ["FetchStatus", "FetchResult", "Fetcher", "always_reachable"]

ReachabilityPredicate = Callable[[HostLocator], bool]

# How long an unprotected fetcher waits on a stalled publication point
# before giving up — the rsync-client-style "very patient" default whose
# cost the resilience layer exists to avoid paying.
DEFAULT_ATTEMPT_TIMEOUT = HOUR


def always_reachable(_locator: HostLocator) -> bool:
    """The degenerate data plane: every server reachable (no BGP model)."""
    return True


class FetchStatus(enum.Enum):
    """How one publication-point fetch ended."""

    OK = "ok"
    UNREACHABLE = "unreachable"  # no route to the repository host
    UNKNOWN_HOST = "unknown-host"
    FAULTED = "faulted"          # server reached but the fetch failed
    TIMEOUT = "timeout"          # attempt exceeded its deadline (delay/stall)
    BREAKER_OPEN = "breaker-open"  # host skipped: circuit breaker is open


# Statuses worth a retry within one fetch_point call.  UNKNOWN_HOST is
# permanent for the duration of a refresh; BREAKER_OPEN is the retry
# mechanism itself saying stop.
RETRYABLE = frozenset({
    FetchStatus.UNREACHABLE, FetchStatus.FAULTED, FetchStatus.TIMEOUT,
})


@dataclass
class FetchResult:
    """Outcome of syncing one publication point.

    *attempts* counts tries within this one call (1 for a fetcher that
    is not resilient; 0 when the circuit breaker short-circuited before
    any try).  *elapsed* is the simulated seconds the whole call cost, backoff
    included.  *serial* is the point's ``(session, revision)`` when
    *files* is exactly what the point holds under it (None when a fault
    could have rewritten them); *unchanged* marks a not-modified fetch:
    the caller's copy at that serial is current and *files* is empty.
    """

    uri: str
    status: FetchStatus
    files: dict[str, bytes] = field(default_factory=dict)
    fetched_at: int = 0
    attempts: int = 1
    elapsed: int = 0
    serial: tuple[int, int] | None = None
    unchanged: bool = False

    @property
    def ok(self) -> bool:
        return self.status is FetchStatus.OK


class _Resolved(NamedTuple):
    """A URI, parsed, and its point as of the registry's *mounts*."""

    parsed: RsyncUri
    text: str
    point: HostedPublicationPoint | None
    mounts: int


class Fetcher:
    """Fetches publication points subject to routing, faults, and time.

    Parameters
    ----------
    registry:
        The global name → server mapping.
    clock:
        Simulated time source.  Stamps results for cache staleness and is
        *advanced* by timing faults, backoff waits, and deadline misses —
        fetch cost is simulated time, which is what the resilience
        benchmark measures.
    reachability:
        Predicate the routing layer provides; default ignores routing.
    faults:
        Optional fault injector applied to everything fetched.
    attempt_timeout:
        Deadline in simulated seconds for a single attempt of a fetcher
        that is not *resilient* (default: one hour — the unprotected RP
        that waits out a stalling authority).
    resilient:
        Enables the :mod:`~repro.repository.resilience` policy: the
        retry/backoff loop and the per-host circuit breakers (exposed as
        :attr:`breakers`), with its per-attempt deadline in place of
        *attempt_timeout*.
    metrics:
        Telemetry registry for fetch counters (None → the process-global
        default registry).
    identity:
        Who is fetching, as far as a Byzantine authority can tell (e.g.
        the relying party's name).  An equivocating publication point
        (:data:`~repro.repository.faults.FaultKind.SPLIT_VIEW`) keys the
        view it serves on this string.
    """

    def __init__(
        self,
        registry: RepositoryRegistry,
        clock: Clock,
        *,
        reachability: ReachabilityPredicate = always_reachable,
        faults: FaultInjector | None = None,
        attempt_timeout: int = DEFAULT_ATTEMPT_TIMEOUT,
        resilient: bool = False,
        metrics: MetricsRegistry | None = None,
        identity: str = "",
    ):
        if attempt_timeout < 1:
            raise ValueError(f"bad attempt timeout {attempt_timeout}")
        self._registry = registry
        self._clock = clock
        self.reachability = reachability
        self.faults = faults
        self.identity = identity
        self.attempt_timeout = attempt_timeout
        self.resilient = resilient
        self.breakers: dict[str, resilience.CircuitBreaker] = {}
        # Each URI a caller names, parsed once, and resolved until the next
        # mount: one entry per publication point fetched, as in the cache.
        self._known: dict[str | RsyncUri, _Resolved] = {}
        self.metrics = metrics if metrics is not None else default_registry()
        fetches = self.metrics.counter(
            "repro_fetch_total",
            help="publication-point fetches by outcome",
            labelnames=("status",),
        )
        # Tallies by status value: counting a fetch hashes no FetchStatus.
        self._outcomes = {s.value: fetches.tally(status=s.value)
                          for s in FetchStatus}
        self._m_bytes = self.metrics.counter(
            "repro_fetch_bytes_total", help="bytes delivered by successful fetches"
        )
        self._m_objects = self.metrics.counter(
            "repro_fetch_objects_total", help="files delivered by successful fetches"
        )
        self._m_retries = self.metrics.counter(
            "repro_fetch_retries_total",
            help="retry attempts after a retryable fetch failure",
        )
        self._m_deadline_misses = self.metrics.counter(
            "repro_fetch_deadline_misses_total",
            help="attempts that exceeded their deadline (delayed or stalled)",
        )
        self._m_breaker_skips = self.metrics.counter(
            "repro_fetch_breaker_skips_total",
            help="fetches short-circuited because the host's breaker was open",
        )
        self._m_breaker_transitions = self.metrics.counter(
            "repro_breaker_transitions_total",
            help="circuit-breaker state transitions, by state entered",
            labelnames=("state",),
        )

    @property
    def clock(self) -> Clock:
        """The simulated clock stamping this fetcher's results."""
        return self._clock

    def breaker_for(self, host: str) -> resilience.CircuitBreaker | None:
        """The host's circuit breaker (None for a fetcher not resilient)."""
        if not self.resilient:
            return None
        breaker = self.breakers.get(host)
        if breaker is None:
            breaker = self.breakers[host] = resilience.CircuitBreaker(host)
        return breaker

    def fetch_point(
        self, uri: str | RsyncUri, *, serial: tuple[int, int] | None = None
    ) -> FetchResult:
        """Sync one publication point directory.

        Never raises for delivery problems — failure is data here (the
        relying party must decide what missing information *means*, which
        is the paper's Section 4).  A resilient fetcher runs the whole
        retry loop here: attempt, back off, re-attempt, up to the retry
        cap or until the host's circuit breaker opens.

        *serial* is the ``(session, revision)`` of the caller's copy.
        When the point still has it and no fault could touch the fetch,
        the result is ``OK`` and *unchanged*, with no files: nothing is
        copied or counted.  Routing, timing and breakers act either way.
        """
        known = self._known.get(uri)
        if known is None or known.mounts != self._registry.mounts:
            known = self._resolve(uri, known)
        if self.resilient:
            breaker = self.breaker_for(known.parsed.host)
            deadline, max_attempts = (
                resilience.ATTEMPT_DEADLINE, resilience.MAX_ATTEMPTS
            )
        else:
            breaker, deadline, max_attempts = None, self.attempt_timeout, 1
        uri_text = known.text
        clock = self._clock
        start = now = clock.now
        attempts = 0
        while True:
            if breaker is not None:
                allowed, transition = breaker.allow(now)
                if transition is not None:
                    self._m_breaker_transitions.inc(state=transition.value)
                if not allowed:
                    self._m_breaker_skips.inc()
                    self._outcomes[FetchStatus.BREAKER_OPEN.value][0] += 1
                    return FetchResult(uri_text, FetchStatus.BREAKER_OPEN,
                                       fetched_at=now, attempts=attempts,
                                       elapsed=now - start)
            attempts += 1
            status, files, served = self._attempt(known, deadline, serial)
            now = clock.now
            if breaker is not None:
                transition = breaker.record(status is FetchStatus.OK, now)
                if transition is not None:
                    self._m_breaker_transitions.inc(state=transition.value)
            if attempts >= max_attempts or status not in RETRYABLE:
                # The result is the caller's: a fetcher lives as long as
                # its relying party, and a kept result would pin every
                # superseded manifest and CRL.
                self._outcomes[status._value_][0] += 1
                if files:
                    self._m_objects.inc(len(files))
                    self._m_bytes.inc(sum(map(len, files.values())))
                return FetchResult(
                    uri_text, status, files, fetched_at=now,
                    attempts=attempts, elapsed=now - start, serial=served,
                    unchanged=served is not None and served == serial,
                )
            self._m_retries.inc()
            now = clock.advance(resilience.backoff(attempts, salt=uri_text))

    def _resolve(self, uri: str | RsyncUri,
                 known: _Resolved | None) -> _Resolved:
        """*uri*'s entry, resolved now (parsed the first time only)."""
        if known is None:
            parsed = uri if isinstance(uri, RsyncUri) else RsyncUri.parse(uri)
            known = _Resolved(parsed, str(parsed), None, -1)
        mounts = self._registry.mounts
        try:
            point = self._registry.resolve(known.parsed)
        except UnknownHostError:
            point, mounts = None, -1  # not kept: the next fetch resolves again
        known = self._known[uri] = known._replace(point=point, mounts=mounts)
        return known

    def _attempt(
        self,
        known: _Resolved,
        deadline: int,
        serial: tuple[int, int] | None,
    ) -> tuple[FetchStatus, dict[str, bytes], tuple[int, int] | None]:
        """One try at *known*'s publication point, bounded by *deadline*.

        Returns the status, the files served and the point's serial when
        those files are its faithful contents.  A point at *serial* is
        served as no files.
        """
        _, uri_text, point, _ = known
        if point is None:
            return FetchStatus.UNKNOWN_HOST, {}, None

        if not self.reachability(point.server.locator):
            return FetchStatus.UNREACHABLE, {}, None

        faults = self.faults
        if faults is None or not faults.touches(uri_text):
            current = point.serial
            if current == serial:
                return FetchStatus.OK, {}, current
            return FetchStatus.OK, point.snapshot(), current

        delay = faults.point_delay(uri_text)
        if delay is None or delay > deadline:
            # Stalled or too slow: the attempt burns its whole deadline.
            self._clock.advance(deadline)
            self._m_deadline_misses.inc()
            return FetchStatus.TIMEOUT, {}, None
        if delay:
            self._clock.advance(delay)
        if faults.attempt_fails(uri_text):
            return FetchStatus.FAULTED, {}, None
        if faults.point_unreachable(uri_text):
            return FetchStatus.FAULTED, {}, None

        # Byzantine rewrites act on the whole assembled view first, then
        # per-file kinds damage whatever that view contains.
        checkpoints = getattr(point, "checkpoints", None)
        files = faults.filter_point(
            uri_text, point.snapshot(),
            identity=self.identity,
            history=checkpoints() if checkpoints is not None else (),
        )
        served: dict[str, bytes] = {}
        for name in sorted(files):
            filtered = faults.filter_file(uri_text, name, files[name])
            if filtered is None:
                continue  # dropped
            served[name] = filtered
        return FetchStatus.OK, served, None
