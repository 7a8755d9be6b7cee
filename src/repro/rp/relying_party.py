"""The relying party: fetch, cache, validate, classify.

Ties the pipeline together the way RFC 6480 describes a relying party
operating: periodically synchronize the distributed repositories into a
local cache, run path validation over the cache, and use the resulting
VRPs to classify BGP routes.

Discovery is a top-down worklist: the trust anchors' publication points
are fetched and judged first, the child certificates they accept name the
next level's points, those are fetched and judged next, and so on until
no new certificate appears.  Every reached CA's point is judged exactly
once per refresh, at the instant its level's fetches finished, from
whatever the cache then serves for it.  A point that cannot be fetched
(unreachable, faulted, over budget) leaves whatever the cache already
had — or nothing, which is exactly the "missing information" condition
whose consequences Section 4 of the paper analyzes.

Each level is one fetch round over the URIs the walk has not reached
before.  The round's policy is chosen once, when the relying party is
built: plain URI order admitting everything, or the Stalloris defense's
:class:`~repro.repository.scheduler.FetchScheduler`.  The fetch budget
is checked in the round alone, before each fetch; once it runs out,
every URI still to come is skipped and served from the cache.

Polling every point is inherent: an authority can change or whack an
object at any moment.  Nothing after the poll is per point.  The cache
reports which URIs' served copies changed (:attr:`LocalCache.changed
<repro.repository.cache.LocalCache.changed>`), only those are read
again, and the walk judges again only what they, the clock or the
issuing certificates touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

from ..repository.cache import CacheFreshness, LocalCache
from ..repository.fetch import Fetcher, FetchResult, FetchStatus
from ..repository.scheduler import FetchScheduler
from ..rpki.cert import ResourceCertificate
from ..telemetry import MetricsRegistry, default_registry
from .incremental import IncrementalState
from .origin import OriginValidationOutcome, validate
from .pathval import PathValidator, ValidationRun
from .states import Route, RouteValidity
from .vrp import VRP, VrpSet
from .walk import ValidationWalk

__all__ = ["RelyingParty", "RefreshReport", "DegradationReport"]

# Called with a refresh's net (announced, withdrawn).
DeltaListener = Callable[[tuple[VRP, ...], tuple[VRP, ...]], None]


@dataclass
class DegradationReport:
    """What one refresh survived: the containment ledger.

    The invariant this records is *one bad object never aborts the
    refresh* — every damaged input ends up listed here instead of raised.
    Affected subtrees keep serving last-known-good VRPs through the
    cache's stale-grace machinery; everything else is unaffected.
    """

    # (point URI, file name, issue code) per excluded object.
    quarantined_objects: list[tuple[str, str, str]] = field(
        default_factory=list
    )
    # (point URI, reason) per point that failed to fetch or whose
    # validation was contained whole.
    degraded_points: list[tuple[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.quarantined_objects and not self.degraded_points


@dataclass
class RefreshReport:
    """Everything one refresh cycle did."""

    run: ValidationRun
    fetches: list[FetchResult] = field(default_factory=list)
    rounds: int = 0
    # Points left unfetched once the fetch budget ran out, sorted.
    skipped: list[str] = field(default_factory=list)
    freshness: dict[str, CacheFreshness] = field(default_factory=dict)
    degradation: DegradationReport = field(default_factory=DegradationReport)
    # Points the fetch scheduler deferred to stale-cache grace this cycle,
    # sorted (always empty unless ``scheduled=True``).
    deferred: list[str] = field(default_factory=list)
    # The net change of the VRP table since the previous refresh — what
    # the serving planes (QueryService, RtrCacheServer.apply_delta)
    # install instead of diffing tables.
    announced: tuple[VRP, ...] = ()
    withdrawn: tuple[VRP, ...] = ()

    @property
    def vrps(self) -> VrpSet:
        return self.run.vrps

    @property
    def elapsed(self) -> int:
        """Simulated seconds this refresh spent fetching (incl. backoff)."""
        return sum(result.elapsed for result in self.fetches)

    @property
    def stale_points(self) -> list[str]:
        """Points served from stale cache (grace window) this cycle."""
        return [uri for uri, f in self.freshness.items()
                if f is CacheFreshness.STALE]

    @property
    def expired_points(self) -> list[str]:
        """Points withheld from validation: stale beyond the grace window."""
        return [uri for uri, f in self.freshness.items()
                if f is CacheFreshness.EXPIRED]


class RelyingParty:
    """A relying party with its own fetcher, cache, and validator.

    Parameters
    ----------
    trust_anchors:
        Out-of-band configured self-signed certificates.
    fetcher:
        The delivery path (carries the routing-reachability predicate and
        the fault model).  Its clock is the relying party's: ``now`` is
        judged on the clock fetches are timed on.
    keep_stale:
        Cache policy on failed refresh (see :class:`LocalCache`).
    stale_grace:
        Grace window in simulated seconds for serving stale cache entries
        (see :class:`LocalCache`); ``None`` serves stale copies forever.
    fetch_budget:
        Cap in simulated seconds on fetching per refresh cycle.  Checked
        between fetches (a single stalled fetch can still overshoot by
        one attempt's worth), so pair it with a resilient fetcher whose
        per-attempt deadline is small.  Once exhausted, remaining points
        are skipped and validation falls back to the cache — the
        stale-serve path.  ``None`` (default) never stops fetching.
    scheduled:
        Fetch scheduling, the Stalloris defense: the relying party owns a
        :class:`~repro.repository.scheduler.FetchScheduler`
        (:attr:`scheduler`) that orders each round's fetches by priority
        (staleness, then past-latency EWMA) and holds every authority to
        :data:`~repro.repository.scheduler.AUTHORITY_BUDGET`, so one slow
        delegation subtree cannot monopolize the refresh.  Over-budget
        points are *deferred*: listed on :attr:`RefreshReport.deferred`,
        recorded as degraded, and served from stale-cache grace like a
        failed fetch.  ``False`` (the default) fetches in plain URI order
        and admits everything.
    strict_manifests:
        Validator policy on manifest trouble (see :class:`PathValidator`).
    mode:
        Accepted only as ``"incremental"``, its one value; slated for
        removal.  Validation state always outlives a refresh: an
        :class:`~repro.rp.incremental.IncrementalState`
        (:attr:`incremental_state`) replays unchanged publication points
        instead of re-validating them (see :mod:`repro.rp.incremental`
        for the exact invalidation rules).  ``incremental_state.clear()``
        makes the next refresh cold.
    metrics:
        Telemetry registry shared with this RP's cache and validator
        (None → the process-global default registry).  Give each relying
        party its own registry to keep their metrics separable.
    """

    def __init__(
        self,
        trust_anchors: list[ResourceCertificate],
        fetcher: Fetcher,
        *,
        keep_stale: bool = True,
        stale_grace: int | None = None,
        fetch_budget: int | None = None,
        scheduled: bool = False,
        strict_manifests: bool = False,
        mode: str = "incremental",
        metrics: MetricsRegistry | None = None,
    ):
        if fetch_budget is not None and fetch_budget < 1:
            raise ValueError(f"bad fetch budget {fetch_budget}")
        if mode != "incremental":
            raise ValueError(
                f"mode {mode!r} is gone: validation state is always kept; "
                "call rp.incremental_state.clear() for a cold refresh"
            )
        self.fetcher = fetcher
        self.fetch_budget = fetch_budget
        self.metrics = metrics if metrics is not None else default_registry()
        self.scheduler = (
            FetchScheduler(metrics=self.metrics) if scheduled else None
        )
        self.cache = LocalCache(keep_stale=keep_stale, stale_grace=stale_grace,
                                metrics=self.metrics)
        self.incremental_state = IncrementalState(metrics=self.metrics)
        self.validator = PathValidator(
            trust_anchors, strict_manifests=strict_manifests,
            metrics=self.metrics, incremental=self.incremental_state,
        )
        self._clock = fetcher.clock
        self._last_run: ValidationRun | None = None
        self._subscribers: list[DeltaListener] = []
        self._m_refreshes = self.metrics.counter(
            "repro_rp_refresh_total", help="completed refresh cycles"
        )
        self._m_rounds = self.metrics.counter(
            "repro_rp_refresh_rounds_total",
            help="tree levels that had publication points left to fetch, "
                 "across all refreshes",
        )
        self._m_vrps = self.metrics.gauge(
            "repro_rp_vrps", help="VRPs produced by the most recent refresh"
        )
        self._m_classifications = self.metrics.counter(
            "repro_rp_route_classifications_total",
            help="RFC 6811 route classifications, by resulting state",
            labelnames=("state",),
        )
        self._m_budget_exhausted = self.metrics.counter(
            "repro_rp_budget_exhausted_total",
            help="refresh cycles that hit their fetch budget and fell back "
                 "to cached data",
        )
        self._m_quarantined = self.metrics.counter(
            "repro_rp_quarantined_objects_total",
            help="objects excluded by containment while siblings validated",
        )
        self._m_degraded = self.metrics.counter(
            "repro_rp_degraded_points_total",
            help="publication points degraded in a refresh (fetch failure "
                 "or contained validation error)",
        )
        self._m_vrp_changes = self.metrics.counter(
            "repro_rp_vrp_changes_total",
            help="net VRP table changes across refreshes, by kind",
            labelnames=("kind",),
        )

    def subscribe(self, listener: DeltaListener) -> None:
        """Call ``listener(announced, withdrawn)`` after every refresh.

        The arguments are that refresh's net table change
        (:attr:`RefreshReport.announced` / ``withdrawn``), both empty
        when nothing moved.  A refresh that raises notifies nobody.
        """
        self._subscribers.append(listener)

    # -- the refresh cycle ----------------------------------------------------

    def refresh(self) -> RefreshReport:
        """One full synchronize-and-validate cycle."""
        # ``run`` is a stand-in until the walk finishes (sharing the
        # current table saves building an empty one per refresh).
        report = RefreshReport(run=ValidationRun(vrps=self.vrps))
        clock, cache, state = self._clock, self.cache, self.incremental_state
        start = clock.now
        deadline = (
            math.inf if self.fetch_budget is None else start + self.fetch_budget
        )
        # Every publication URI this refresh has reached: each is fetched,
        # deferred or skipped once, then read once if it changed.
        visited: set[str] = set()
        # (URI, reason) per point whose fetch failed, in fetch order.
        failed: list[tuple[str, str]] = []
        # The walk reads the state's view of the cache (the cache's own
        # file dicts: zero copies); the cache says which URIs to read
        # again.  After a view another source wrote, every URI it or the
        # cache holds is read anew, when the walk reaches it.
        if state.source is not cache:
            cache.changed.update(
                state.digests, (point.uri for point in cache.points()))
            state.source = cache
        if self.scheduler is not None:
            self.scheduler.begin_cycle()
        metrics = self.metrics
        # The refresh's stage tree: a node per tree level, its fetch
        # round and its judgement (see docs/telemetry.md).
        with metrics.trace("repro_rp_refresh_seconds", clock):
            walk = ValidationWalk(self.validator, start)
            depth = 0
            while walk.frontier:
                level = metrics.open(f"level {depth}", clock.now)
                new = walk.publication_uris() - visited
                visited |= new
                if new:
                    self._fetch_round(new, report, deadline, failed)
                now = clock.now
                unread = cache.changed.intersection(new)
                if unread:
                    state.changed.update(cache.read(
                        unread, now, state.files, state.digests))
                walk.step(now)
                metrics.close(level, now)
                depth += 1
            run = walk.finish()
        if report.skipped:
            report.skipped.sort()
            self._m_budget_exhausted.inc()
        report.deferred.sort()
        report.freshness = cache.classify(clock.now)
        report.run = run
        report.announced, report.withdrawn = run.announced, run.withdrawn
        report.degradation = self._degradation(
            state.assembled.contained, failed, report.deferred
        )
        self._last_run = run
        self._m_refreshes.inc()
        self._m_rounds.inc(report.rounds)
        self._m_vrps.set(len(run.vrps))
        if report.degradation.quarantined_objects:
            self._m_quarantined.inc(len(report.degradation.quarantined_objects))
        if report.degradation.degraded_points:
            self._m_degraded.inc(len(report.degradation.degraded_points))
        if report.announced:
            self._m_vrp_changes.inc(len(report.announced), kind="announced")
        if report.withdrawn:
            self._m_vrp_changes.inc(len(report.withdrawn), kind="withdrawn")
        for listener in self._subscribers:
            listener(report.announced, report.withdrawn)
        return report

    def _fetch_round(
        self, pending: set[str], report: RefreshReport, deadline: float,
        failed: list[tuple[str, str]],
    ) -> None:
        """Fetch one level's *pending* URIs into the cache.

        Each URI ends on exactly one of the report's lists: ``fetches``,
        ``deferred`` (the scheduler said not this cycle; the cache's last
        good copy keeps serving) or ``skipped`` (the fetch budget ran out
        at *deadline*; from then on every round skips whole).  A fetch
        that did not succeed is also put on *failed*, with its status.
        """
        if report.skipped:
            report.skipped.extend(pending)
            return
        report.rounds += 1
        clock, cache, scheduler = self._clock, self.cache, self.scheduler
        fetch = self.metrics.open("fetch", clock.now)
        fetched = unchanged = size = 0
        # Plain URI order admitting everything, unless scheduled.
        ordered = (sorted(pending) if scheduler is None
                   else scheduler.order(pending, cache, clock.now))
        for index, uri in enumerate(ordered):
            if deadline < math.inf and clock.now >= deadline:
                report.skipped.extend(ordered[index:])
                break
            if scheduler is not None and not scheduler.admit(uri):
                report.deferred.append(uri)
                continue
            # The cached copy's serial: an unchanged point is answered
            # not-modified, with nothing copied.
            cached = cache.point(uri)
            try:
                result = self.fetcher.fetch_point(
                    uri, serial=None if cached is None else cached.serial
                )
            except Exception:
                # Containment: a crashing fetch degrades one point (via
                # its FAULTED status), never the whole refresh.
                result = FetchResult(
                    uri, FetchStatus.FAULTED, fetched_at=clock.now,
                )
            cache.update(result)
            report.fetches.append(result)
            if result.status is not FetchStatus.OK:
                failed.append((uri, result.status.value))
            if scheduler is not None:
                scheduler.record(uri, result.elapsed)
            fetched += 1
            unchanged += result.unchanged
            if result.files:
                size += sum(map(len, result.files.values()))
        fetch.counts.update(points=fetched, unchanged=unchanged, bytes=size)
        self.metrics.close(fetch, clock.now)

    @staticmethod
    def _degradation(
        contained: tuple[list, list],
        failed: list[tuple[str, str]],
        deferred: list[str] = (),
    ) -> DegradationReport:
        """Aggregate this cycle's containment outcomes.

        *contained* is the run's containment outcomes, as the walk
        assembled them; *failed* the ``(URI, status)`` of each fetch
        that did not succeed.  Every
        degraded point appears exactly once: a point both quarantined
        by validation *and* failing its fetch (a composed timing +
        Byzantine fault) is still one degraded point, reported under its
        first-seen reason.
        """
        objects, points = contained
        degradation = DegradationReport(quarantined_objects=list(objects))
        seen: set[str] = set()
        for uri, reason in chain(points, failed, (
                (uri, "budget-deferred") for uri in deferred)):
            if uri not in seen:
                seen.add(uri)
                degradation.degraded_points.append((uri, reason))
        return degradation

    # -- classification surface -------------------------------------------------

    @property
    def clock(self):
        """The simulated clock this relying party runs on."""
        return self._clock

    @property
    def vrps(self) -> VrpSet:
        """The VRPs from the most recent refresh (empty before the first).

        Aliasing contract: this, every ``report.vrps`` and every
        ``run.vrps`` are one object, the live index, for the relying
        party's lifetime.  The next :meth:`refresh` edits it in place, so
        anything that must outlive a refresh takes ``as_frozenset()``,
        the immutable snapshot of the epoch it was called in (what
        ``RtrCacheServer.update`` adopts).
        """
        return self.incremental_state.vrps

    @property
    def last_run(self) -> ValidationRun | None:
        return self._last_run

    def validate_origin(self, prefix, origin) -> OriginValidationOutcome:
        """RFC 6811 validation with evidence, against the current VRP set."""
        outcome = validate(prefix, origin, self.vrps)
        self._m_classifications.inc(state=outcome.state.value)
        return outcome

    def classify(self, route: Route) -> RouteValidity:
        """RFC 6811 classification against the current VRP set."""
        return self.validate_origin(route.prefix, route.origin).state

    def classify_parts(self, prefix_text: str, origin: int) -> RouteValidity:
        return self.classify(Route.parse(prefix_text, origin))
