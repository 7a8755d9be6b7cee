"""Section 6: the RPKI ⇒ BGP ⇒ RPKI loop, closed.

Two tools:

1. :class:`RepositoryDependencyGraph` — the *static* analysis.  RPKI
   delivery runs over TCP/IP (rsync), so reaching a repository requires a
   usable route to it; under drop-invalid, that route needs its matching
   ROA; that ROA lives in some repository.  The graph has an edge from
   publication point A to publication point B when fetching A requires a
   ROA stored at B.  A cycle through a point that also satisfies the
   paper's condition (b) — some *covering but not matching* ROA exists for
   the repository's route — is a persistent-failure trap: one bad fetch
   and the point can never be re-fetched.

2. :class:`ClosedLoopSimulation` — the *dynamic* reproduction of Side
   Effect 7.  Epoch by epoch: the relying party refreshes its cache using
   the reachability the *previous* epoch's VRPs produced, then routing is
   recomputed from the new VRPs.  Injecting one corrupted fetch of the
   self-hosted ROA shows the transient fault becoming permanent under
   drop-invalid, and healing under depref-invalid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from ..bgp import (
    AsGraph,
    LocalPolicy,
    Origination,
    RoutingOutcome,
    forward,
    policy_table,
    propagate,
)
from ..repository import Fetcher, FaultInjector, HostLocator, RepositoryRegistry
from ..resources import ASN, format_address
from ..rp import VRP, RelyingParty, Route, RouteValidity, VrpSet, validate
from ..rpki import CertificateAuthority, RsyncUri
from ..simtime import Clock
from .whack import subtree_roas

__all__ = [
    "DependencyEdge",
    "CircularRisk",
    "RepositoryDependencyGraph",
    "EpochReport",
    "ClosedLoopSimulation",
]


# ---------------------------------------------------------------------------
# static analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DependencyEdge:
    """Fetching *dependent* needs a ROA published at *dependency*."""

    dependent: str    # publication point URI
    dependency: str   # publication point URI holding the needed ROA
    roa: str          # the ROA, in paper notation
    route: str        # the repository route the ROA validates


@dataclass(frozen=True)
class CircularRisk:
    """One publication point caught in a dependency cycle."""

    cycle: tuple[str, ...]          # point URIs forming the cycle
    covering_threat: bool           # paper condition (b) holds somewhere

    @property
    def is_persistent_failure_trap(self) -> bool:
        """Conditions (a)+(b): a transient fault here never heals under
        drop-invalid (condition (c) is the relying party's choice)."""
        return self.covering_threat


class RepositoryDependencyGraph:
    """The ROA-to-repository dependency structure of one RPKI world."""

    def __init__(self) -> None:
        self.graph = nx.DiGraph()
        self.edges: list[DependencyEdge] = []

    @classmethod
    def build(
        cls,
        registry: RepositoryRegistry,
        authorities: list[CertificateAuthority],
        originations: list[Origination],
    ) -> "RepositoryDependencyGraph":
        """Derive the dependency graph.

        *originations* must include the BGP announcements of the prefixes
        the repository servers live in, so each server's route — and the
        ROA that route needs — is well-defined.
        """
        analysis = cls()

        # Which publication point does each ROA live at?  (Its issuer's.)
        roa_home: dict[str, list] = {}
        all_vrps = []
        for root in authorities:
            for holder, _name, roa in subtree_roas(root):
                uri = _point_uri(holder)
                for rp_entry in roa.prefixes:
                    vrp = VRP(
                        prefix=rp_entry.prefix,
                        max_length=rp_entry.effective_max_length,
                        asn=roa.asn,
                    )
                    all_vrps.append(vrp)
                    roa_home.setdefault(str(vrp), []).append(uri)
        vrp_set = VrpSet(all_vrps)

        # Each server: what route covers it, and which ROAs matter?
        for server in registry.servers():
            locator = server.locator
            route = _server_route(locator, originations)
            if route is None:
                continue  # repository outside the modeled address space
            for point in server.points():
                point_uri = str(point.uri)
                analysis.graph.add_node(point_uri)
                covering = list(vrp_set.covering(route.prefix))
                for vrp in covering:
                    if not vrp.matches(route.prefix, route.origin):
                        continue
                    for home in roa_home.get(str(vrp), []):
                        edge = DependencyEdge(
                            dependent=point_uri,
                            dependency=home,
                            roa=str(vrp),
                            route=str(route),
                        )
                        analysis.edges.append(edge)
                        analysis.graph.add_edge(
                            point_uri, home, roa=str(vrp), route=str(route)
                        )
                # Condition (b): covering-but-not-matching ROAs exist.
                threat = any(
                    not v.matches(route.prefix, route.origin) for v in covering
                )
                analysis.graph.nodes[point_uri]["covering_threat"] = threat
        return analysis

    def cycles(self) -> list[CircularRisk]:
        """All dependency cycles (including self-loops — condition (a))."""
        risks = []
        for cycle in nx.simple_cycles(self.graph):
            threat = any(
                self.graph.nodes[node].get("covering_threat", False)
                for node in cycle
            )
            risks.append(CircularRisk(cycle=tuple(cycle), covering_threat=threat))
        return risks


def _point_uri(authority: CertificateAuthority) -> str:
    return str(RsyncUri.parse(authority.sia))


def _server_route(
    locator: HostLocator, originations: list[Origination]
) -> Route | None:
    """The most specific announced route covering the server's address."""
    best: Origination | None = None
    for origination in originations:
        if origination.prefix.covers(locator.host_prefix):
            if best is None or origination.prefix.length > best.prefix.length:
                best = origination
    if best is None:
        return None
    return Route(best.prefix, best.origin)


# ---------------------------------------------------------------------------
# dynamic simulation
# ---------------------------------------------------------------------------


@dataclass
class EpochReport:
    """One epoch of the closed loop."""

    epoch: int
    vrp_count: int
    unreachable_points: list[str] = field(default_factory=list)
    invalid_routes: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        return (
            f"epoch {self.epoch}: {self.vrp_count} VRPs, "
            f"{len(self.unreachable_points)} unreachable point(s)"
        )


class ClosedLoopSimulation:
    """RPKI -> route validity -> BGP -> RPKI delivery, iterated.

    Parameters
    ----------
    registry, authorities:
        The RPKI world (publication points and their contents).
    graph, originations:
        The BGP world (topology and who announces what, including the
        prefixes repository servers live in).
    rp_asn:
        Where the relying party sits.
    policy:
        The relying party's local policy — the (c) in the paper's three
        conditions.
    clock:
        Simulated time, advanced one hour per epoch.
    faults:
        Fault injector for the transient error.
    """

    EPOCH_SECONDS = 3600

    def __init__(
        self,
        *,
        registry: RepositoryRegistry,
        authorities: list[CertificateAuthority],
        graph: AsGraph,
        originations: list[Origination],
        rp_asn: int,
        policy: LocalPolicy = LocalPolicy.DROP_INVALID,
        clock: Clock,
        faults: FaultInjector | None = None,
    ):
        self.registry = registry
        self.authorities = authorities
        self.graph = graph
        self.originations = originations
        self.rp_asn = ASN(rp_asn)
        self.policy = policy
        self.clock = clock
        self.faults = faults

        self._outcome: RoutingOutcome | None = None
        self.fetcher = Fetcher(
            registry, clock, reachability=self._reachable, faults=faults
        )
        trust_anchors = [
            root.certificate for root in authorities if root.parent is None
        ]
        self.rp = RelyingParty(trust_anchors, self.fetcher)
        self.epochs: list[EpochReport] = []

    # -- the loop's two half-steps -------------------------------------------

    def _reachable(self, locator: HostLocator) -> bool:
        """Data-plane reachability from the RP's AS, per *current* routing."""
        if self._outcome is None:
            return True  # cold start: before any validation, nothing filtered
        address = format_address(locator.afi, locator.address)
        delivery = forward(self._outcome, self.rp_asn, address)
        return delivery.delivered_to == locator.origin_asn

    def _recompute_routing(self) -> None:
        vrps = self.rp.vrps
        validity = lambda route: validate(  # noqa: E731
            route.prefix, route.origin, vrps).state
        policies = policy_table(
            list(self.graph.ases()), self.policy, validity
        )
        self._outcome = propagate(self.graph, self.originations, policies)

    # -- public surface -----------------------------------------------------------

    def step(self) -> EpochReport:
        """One epoch: fetch+validate under current routing, then re-route."""
        epoch = len(self.epochs)
        if epoch:
            self.clock.advance(self.EPOCH_SECONDS)
        report_data = self.rp.refresh()
        self._recompute_routing()

        unreachable = sorted({
            fetch.uri
            for fetch in report_data.fetches
            if not fetch.ok
        })
        invalid = [
            str(o)
            for o in self.originations
            if self.rp.classify(Route(o.prefix, o.origin))
            is RouteValidity.INVALID
        ]
        report = EpochReport(
            epoch=epoch,
            vrp_count=len(self.rp.vrps),
            unreachable_points=unreachable,
            invalid_routes=invalid,
        )
        self.epochs.append(report)
        return report

    def run(self, epochs: int) -> list[EpochReport]:
        return [self.step() for _ in range(epochs)]

    def route_is_valid(self, prefix_text: str, origin: int) -> bool:
        return self.rp.classify_parts(prefix_text, origin) is RouteValidity.VALID

    def can_reach(self, host: str, origin: int) -> bool:
        """Can the RP's AS currently deliver packets to (host, origin)?"""
        assert self._outcome is not None, "run at least one epoch first"
        delivery = forward(self._outcome, self.rp_asn, host)
        return delivery.delivered_to == ASN(origin)
