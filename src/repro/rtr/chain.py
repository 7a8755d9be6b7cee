"""Cache-to-cache RTR chaining: one validating RP, tiers of re-servers.

Real deployments do not hang thousands of routers off the validating
relying party directly — they interpose non-validating caches that speak
RTR both ways: client upstream, server downstream (the route-server
fan-out measured in "Keep Your Friends Close, but Your Routeservers
Closer", PAPERS.md).  For the paper's threat model this tier is where a
misbehaving authority's reach *multiplies*: whatever the validating RP
was manipulated into believing is re-served, serial by serial, to every
downstream tier with no further validation anywhere on the path.

:class:`ChainedRtrCache` is one such middle box — an
:class:`~repro.rtr.router_client.RtrRouterClient` pulling from an
upstream cache, re-serving through its own
:class:`~repro.rtr.cache_server.RtrCacheServer`.
:class:`CacheChain` builds the full tree (``tiers`` levels of ``fanout``
children each) and pumps it to convergence, exposing the deepest tier so
invariant checks can compare the far edge of the fan-out against the
validating RP (the chaos campaign and ``benchmarks/test_bench_rtr.py``
both do exactly that).
"""

from __future__ import annotations

from ..telemetry import MetricsRegistry
from .cache_server import RtrCacheServer
from .channel import DuplexPipe
from .pdu import VrpRecord
from .router_client import RouterState, RtrRouterClient

__all__ = ["CacheChain", "ChainedRtrCache"]


class ChainedRtrCache:
    """A non-validating RTR cache: client upstream, server downstream.

    The downstream server's serial numbering is independent of the
    upstream's (each cache is its own RTR session space); only the VRP
    *content* propagates.  Every burst the upstream session applies is
    forwarded downstream as the delta it carried, so a hop costs
    O(delta), and a burst that changes nothing served — an idle poll, an
    identical re-pull after a reconnect — costs no serial bump.
    """

    def __init__(
        self,
        upstream: RtrCacheServer,
        *,
        metrics: MetricsRegistry | None = None,
    ):
        self.upstream = upstream
        self.metrics = metrics if metrics is not None else upstream.metrics
        self.server = RtrCacheServer(metrics=self.metrics)
        self._m_reconnects = self.metrics.counter(
            "repro_rtr_chain_reconnects_total",
            help="chained-cache upstream sessions re-established after "
                 "failure",
        )
        self.pipe: DuplexPipe
        self.client: RtrRouterClient
        self._connect()

    def _connect(self) -> None:
        self.pipe = DuplexPipe()
        self.upstream.attach(self.pipe)
        self.client = RtrRouterClient(self.pipe, on_burst=self._forward)
        self.client.connect()

    def _forward(
        self,
        reset: bool,
        announced: list[VrpRecord],
        withdrawn: list[VrpRecord],
    ) -> None:
        """Re-serve one upstream burst downstream as its net delta."""
        if reset:
            # A reset burst is the upstream's whole table, not a change
            # to ours: whatever we serve beyond it has to go.
            withdrawn = self.server.current_vrps().difference(announced)
        self.server.apply_delta(announced, withdrawn)

    def pump(self) -> None:
        """One tick: pull from upstream, re-serve downstream.

        A failed or severed upstream session is transparently
        re-established with a fresh reset sync — the chain heals itself
        the way a real cache daemon reconnects, at the cost of one full
        snapshot pull.
        """
        if self.client.state is RouterState.FAILED or self.pipe.closed:
            self._m_reconnects.inc()
            self._connect()
        self.client.process()
        self.server.process()

    def current_vrps(self) -> frozenset[VrpRecord]:
        """The set this cache re-serves (the equivalence probe): plain
        field tuples, equal to the root's ``VRP`` objects."""
        return self.server.current_vrps()


class CacheChain:
    """A fan-out tree of chained caches rooted at one validating cache.

    ``tiers`` levels deep, each cache serving ``fanout`` children, so
    the deepest tier holds ``fanout ** tiers`` caches while the root
    only ever carries ``fanout`` RTR sessions itself.
    """

    def __init__(
        self,
        root: RtrCacheServer,
        *,
        tiers: int = 1,
        fanout: int = 2,
        metrics: MetricsRegistry | None = None,
    ):
        if tiers < 1:
            raise ValueError("a chain needs at least one tier")
        if fanout < 1:
            raise ValueError("fanout must be at least 1")
        self.root = root
        self.tiers = tiers
        self.fanout = fanout
        self.metrics = metrics if metrics is not None else root.metrics
        self._tiers: list[list[ChainedRtrCache]] = []
        parents: list[RtrCacheServer] = [root]
        for _ in range(tiers):
            tier = [
                ChainedRtrCache(parent, metrics=self.metrics)
                for parent in parents
                for _ in range(fanout)
            ]
            self._tiers.append(tier)
            parents = [cache.server for cache in tier]
        self.metrics.gauge(
            "repro_rtr_chain_caches",
            help="chained (non-validating) caches in the fan-out tree",
        ).set(sum(len(tier) for tier in self._tiers))

    def caches(self) -> list[ChainedRtrCache]:
        """Every chained cache, shallow tiers first."""
        return [cache for tier in self._tiers for cache in tier]

    def tier(self, index: int) -> list[ChainedRtrCache]:
        return list(self._tiers[index])

    def deepest(self) -> list[ChainedRtrCache]:
        """The far edge of the fan-out — furthest from validation."""
        return list(self._tiers[-1])

    def pump(self, rounds: int | None = None) -> None:
        """Propagate the root's current set down every tier.

        One round moves data roughly half a tier (query up, burst
        down), so the default round count covers full propagation from
        a cold start; idle rounds cost only empty mux ticks.
        """
        if rounds is None:
            rounds = 2 * self.tiers + 2
        for _ in range(rounds):
            self.root.process()
            for tier in self._tiers:
                for cache in tier:
                    cache.pump()

    def divergent(self) -> list[ChainedRtrCache]:
        """Deepest-tier caches serving a set other than the root's."""
        truth = self.root.current_vrps()
        return [
            cache for cache in self.deepest()
            if cache.current_vrps() != truth
        ]
