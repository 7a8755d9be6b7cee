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
   cache has nothing to serve for them), then by
   ``staleness x authority weight`` descending, breaking ties by the
   point's past-latency EWMA (cheap expected fetches first) and finally
   by URI.  A slow subtree cannot *starve* fresh-but-aging points by
   sorting ahead of them.

2. **Per-authority budgets** (:meth:`FetchScheduler.admit`): each
   authority (rsync host) gets ``authority_budget`` simulated seconds of
   fetch spend per refresh cycle, measured from actual
   :class:`~repro.repository.fetch.FetchResult.elapsed` cost.  Once a
   host is over budget — or its per-point latency EWMA predicts the next
   fetch would take it over — further points on that host are *deferred*
   for the cycle.  Healthy fetches cost zero simulated seconds, so the
   budget only ever bites the authorities that are actually slow.

3. **Graceful degradation**: a deferred point is not an error — the
   relying party leaves its last-known-good copy in the cache and the
   stale-grace machinery serves it, exactly like a failed fetch, while
   every other authority refreshes at full speed.  ``probes_per_cycle``
   fetches per over-budget host are still admitted each cycle so
   recovery is detected: when the authority speeds back up, the probe's
   cheap result pulls the EWMA down and the subtree is readmitted.

The scheduler is wired into :meth:`repro.rp.RelyingParty.refresh`
behind the ``schedule=`` knob; the default
(``None``) preserves the historical plain-sorted fetch order
byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, TYPE_CHECKING

from ..telemetry import MetricsRegistry, default_registry
from .uri import RsyncUri

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache -> fetch)
    from .cache import LocalCache

__all__ = ["SchedulerConfig", "FetchScheduler"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Tuning knobs for one :class:`FetchScheduler`.

    authority_budget:
        Simulated seconds of fetch spend one authority (rsync host) may
        cost per refresh cycle before its remaining points are deferred.
    authority_max_points:
        Optional hard cap on fetches admitted per authority per cycle —
        a concurrency-style bound for delegation trees so wide that even
        zero-cost fetches should not monopolize a round.  ``None`` (the
        default) leaves point counts unbounded.
    probes_per_cycle:
        Fetches still admitted per cycle to a host that is (or is
        predicted to go) over budget — the recovery probes.  ``0``
        disables probing; deferred hosts then only return via EWMA
        history aging out, so keep it ≥ 1.
    ewma_alpha:
        Smoothing factor for the per-point latency EWMA (weight of the
        newest observation).
    authority_weights:
        Optional host → weight mapping for the priority formula;
        unlisted hosts weigh 1.0.  A higher weight makes an authority's
        staleness count for more, pulling its points forward in the
        fetch order.
    """

    authority_budget: int = 600
    authority_max_points: int | None = None
    probes_per_cycle: int = 1
    ewma_alpha: float = 0.5
    authority_weights: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.authority_budget < 1:
            raise ValueError(f"bad authority budget {self.authority_budget}")
        if self.authority_max_points is not None \
                and self.authority_max_points < 1:
            raise ValueError(
                f"bad authority point cap {self.authority_max_points}"
            )
        if self.probes_per_cycle < 0:
            raise ValueError(f"bad probe count {self.probes_per_cycle}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"bad EWMA alpha {self.ewma_alpha}")
        for host, weight in self.authority_weights.items():
            if weight <= 0:
                raise ValueError(f"bad weight {weight} for {host}")

    def weight_for(self, host: str) -> float:
        return self.authority_weights.get(host, 1.0)


class FetchScheduler:
    """Priority + per-authority-budget fetch scheduling for one RP.

    Latency history (the per-point EWMA) persists across refresh cycles;
    budget spend and probe counts are per-cycle and reset by
    :meth:`begin_cycle`.
    """

    def __init__(
        self,
        config: SchedulerConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
    ):
        self.config = config if config is not None else SchedulerConfig()
        self.metrics = metrics if metrics is not None else default_registry()
        # Point URI -> smoothed observed fetch cost in simulated seconds.
        self._ewma: dict[str, float] = {}
        # Per-cycle, per-host accounting (reset by begin_cycle).
        self._spent: dict[str, int] = {}
        self._admitted: dict[str, int] = {}
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
        self._admitted.clear()
        self._probes.clear()

    def order(
        self, pending: set[str], cache: "LocalCache", now: int
    ) -> list[str]:
        """*pending* in fetch-priority order.

        Never-successfully-fetched points first (nothing cached to fall
        back on), then stalest-first weighted by authority weight, then
        cheapest expected cost, then URI — fully deterministic.
        """

        def priority(uri: str) -> tuple:
            expected = self._ewma.get(uri, 0.0)
            entry = cache.point(uri)
            if entry is None or entry.last_success < 0:
                return (0, 0.0, expected, uri)
            weight = self.config.weight_for(self.authority_of(uri))
            staleness = now - entry.last_success
            return (1, -staleness * weight, expected, uri)

        return sorted(pending, key=priority)

    def admit(
        self, uri: str, *, remaining_budget: int | None = None
    ) -> bool:
        """Whether to fetch *uri* this cycle, or defer it to stale grace.

        Deferral reasons, in check order: the authority's per-cycle
        point cap is reached; the authority is over (or predicted over)
        its time budget with its recovery probes used up; or the
        expected cost exceeds *remaining_budget* — the relying party's
        remaining global fetch budget, when it runs one.
        """
        config = self.config
        host = self.authority_of(uri)
        expected = self._ewma.get(uri, 0.0)
        if config.authority_max_points is not None \
                and self._admitted.get(host, 0) >= config.authority_max_points:
            self._m_deferred.inc(reason="authority-points")
            return False
        if remaining_budget is not None and expected > remaining_budget:
            self._m_deferred.inc(reason="global-budget")
            return False
        spent = self._spent.get(host, 0)
        if spent + expected >= config.authority_budget:
            if self._probes.get(host, 0) >= config.probes_per_cycle:
                self._m_deferred.inc(reason="authority-budget")
                return False
            self._probes[host] = self._probes.get(host, 0) + 1
            kind = "probe"
        else:
            kind = "scheduled"
        self._admitted[host] = self._admitted.get(host, 0) + 1
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
            alpha = self.config.ewma_alpha
            self._ewma[uri] = alpha * elapsed + (1.0 - alpha) * previous

    # -- introspection -------------------------------------------------------

    def expected_cost(self, uri: str) -> float:
        """The point's current latency EWMA (0.0 before any observation)."""
        return self._ewma.get(uri, 0.0)

    def spend(self) -> dict[str, int]:
        """This cycle's per-authority simulated-seconds spend so far."""
        return dict(self._spent)
