"""Deadline-aware fetch scheduling with per-authority fairness.

The Stalloris attack (PAPERS.md) weaponizes the relying party's fetch
loop: a misbehaving authority mints many delegated publication points
(see ``DeploymentConfig(amplification_points=N)``) and answers each one
maximally slowly, so an RP that fetches in plain URI order burns its
whole refresh budget inside the attacker's subtree and downgrades
*unrelated* authorities' VRPs to stale.  The amplification is free for
the attacker — children are just certificates — while the RP pays one
attempt deadline per child.

:class:`FetchScheduler` is the defense, three mechanisms composed:

1. **Priority ordering** (:meth:`FetchScheduler.order`): points are
   fetched stalest-first — never-successfully-fetched points first (the
   cache has nothing to serve for them), then by staleness descending,
   breaking ties by the point's past-latency EWMA (cheap expected
   fetches first) and finally by URI.  A slow subtree cannot *starve*
   fresh-but-aging points by sorting ahead of them.

2. **Per-authority budgets** (:meth:`FetchScheduler.admit`): each
   authority (rsync host) gets :data:`AUTHORITY_BUDGET` simulated
   seconds of fetch spend per refresh cycle, measured from actual
   :class:`~repro.repository.fetch.FetchResult.elapsed` cost.  Once a
   host is over budget — or its per-point latency EWMA predicts the next
   fetch would take it over — further points on that host are *deferred*
   for the cycle.  Healthy fetches cost zero simulated seconds, so the
   budget only ever bites the authorities that are actually slow.

3. **Graceful degradation**: a deferred point is not an error — the
   relying party leaves its last-known-good copy in the cache and the
   stale-grace machinery serves it, exactly like a failed fetch, while
   every other authority refreshes at full speed.  One fetch per
   over-budget host (:data:`PROBES_PER_CYCLE`) is still admitted each
   cycle so recovery is detected: when the authority speeds back up,
   the probe's cheap result pulls the EWMA down and the subtree is
   readmitted.

A relying party built with ``RelyingParty(scheduled=True)`` owns one
scheduler and fetches every round through it; the default fetches in
plain URI order and admits everything.  The relying party's own
``fetch_budget``, when it has one, is checked by the relying party, not
here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..rpki.uri import RsyncUri
from ..telemetry import MetricsRegistry, default_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache -> fetch)
    from .cache import LocalCache

__all__ = ["FetchScheduler"]

# Simulated seconds of fetch spend one authority (rsync host) may cost per
# refresh cycle before its remaining points are deferred: one attempt
# deadline, enough for a first contact plus a recovery probe.
AUTHORITY_BUDGET = 600
# Fetches still admitted per cycle to a host that is (or is predicted to
# go) over budget: the recovery probe that notices a host sped back up.
PROBES_PER_CYCLE = 1
# Weight of the newest observation in the per-point latency EWMA.
EWMA_ALPHA = 0.5


class FetchScheduler:
    """Priority + per-authority-budget fetch scheduling for one RP.

    Latency history (the per-point EWMA) persists across refresh cycles;
    budget spend and probe counts are per-cycle and reset by
    :meth:`begin_cycle`.
    """

    def __init__(self, *, metrics: MetricsRegistry | None = None):
        self.metrics = metrics if metrics is not None else default_registry()
        # Point URI -> smoothed observed fetch cost in simulated seconds.
        self._ewma: dict[str, float] = {}
        # Per-cycle, per-host accounting (reset by begin_cycle).
        self._spent: dict[str, int] = {}
        self._probes: dict[str, int] = {}
        self._m_admitted = self.metrics.counter(
            "repro_sched_admitted_total",
            help="fetches admitted by the scheduler, by kind",
            labelnames=("kind",),
        )
        self._m_deferred = self.metrics.counter(
            "repro_sched_deferred_total",
            help="fetches deferred to stale-cache grace, by reason",
            labelnames=("reason",),
        )

    @staticmethod
    def authority_of(uri: str) -> str:
        """The authority a point belongs to: its rsync host."""
        return RsyncUri.parse(uri).host

    def begin_cycle(self) -> None:
        """Reset per-cycle budget accounting (latency history persists)."""
        self._spent.clear()
        self._probes.clear()

    def order(
        self, pending: set[str], cache: "LocalCache", now: int
    ) -> list[str]:
        """*pending* in fetch-priority order.

        Never-successfully-fetched points first (nothing cached to fall
        back on), then stalest-first, then cheapest expected cost, then
        URI — fully deterministic.
        """

        def priority(uri: str) -> tuple:
            expected = self._ewma.get(uri, 0.0)
            entry = cache.point(uri)
            if entry is None or entry.last_success < 0:
                return (0, 0.0, expected, uri)
            return (1, entry.last_success - now, expected, uri)

        return sorted(pending, key=priority)

    def admit(self, uri: str) -> bool:
        """Whether to fetch *uri* this cycle, or defer it to stale grace.

        A point is deferred when its authority is over (or predicted
        over) :data:`AUTHORITY_BUDGET` with its recovery probe used up.
        """
        host = self.authority_of(uri)
        expected = self._ewma.get(uri, 0.0)
        spent = self._spent.get(host, 0)
        if spent + expected >= AUTHORITY_BUDGET:
            if self._probes.get(host, 0) >= PROBES_PER_CYCLE:
                self._m_deferred.inc(reason="authority-budget")
                return False
            self._probes[host] = self._probes.get(host, 0) + 1
            kind = "probe"
        else:
            kind = "scheduled"
        self._m_admitted.inc(kind=kind)
        return True

    def record(self, uri: str, elapsed: int) -> None:
        """Fold one finished fetch's simulated cost into the accounting."""
        host = self.authority_of(uri)
        self._spent[host] = self._spent.get(host, 0) + elapsed
        previous = self._ewma.get(uri)
        if previous is None:
            self._ewma[uri] = float(elapsed)
        else:
            self._ewma[uri] = (
                EWMA_ALPHA * elapsed + (1.0 - EWMA_ALPHA) * previous
            )

    # -- introspection -------------------------------------------------------
