"""BGP route propagation to convergence.

Fixpoint iteration of Gao–Rexford selection and export over the AS graph:
each round, every AS re-selects among the routes its neighbors currently
export to it; rounds repeat until nothing changes.  Gao–Rexford policies
guarantee a unique stable state on relationship-annotated graphs, so the
iteration terminates (a hard round cap guards pathological inputs).

The output is a :class:`RoutingOutcome`: every AS's RIB, ready for
data-plane forwarding queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..resources import ASN, Prefix
from ..rp.states import RouteValidity
from .errors import AnnouncementError, TopologyError
from .policy import LocalPolicy, SelectionPolicy
from .routes import Announcement, Rib
from .topology import AsGraph

__all__ = ["Origination", "RoutingOutcome", "propagate"]

_MAX_ROUNDS = 1000


@dataclass(frozen=True)
class Origination:
    """One AS announcing one prefix into BGP."""

    prefix: Prefix
    origin: ASN

    @classmethod
    def parse(cls, prefix_text: str, origin: ASN | int) -> "Origination":
        return cls(Prefix.parse(prefix_text), ASN(int(origin)))


@dataclass
class RoutingOutcome:
    """The converged routing state: one RIB per AS."""

    ribs: dict[ASN, Rib] = field(default_factory=dict)
    rounds: int = 0

    def rib_of(self, asn: ASN | int) -> Rib:
        return self.ribs[ASN(int(asn))]


def propagate(
    graph: AsGraph,
    originations: list[Origination],
    policies: dict[ASN, SelectionPolicy] | None = None,
) -> RoutingOutcome:
    """Run BGP to convergence.

    Parameters
    ----------
    graph:
        The AS topology.
    originations:
        Who announces what (victims, hijackers, everyone).
    policies:
        Per-AS selection policies; ASes not in the map (or all ASes, if
        the map is None) use plain Gao–Rexford with the RPKI off.
    """
    default_policy = SelectionPolicy(LocalPolicy.RPKI_OFF)
    policies = policies or {}

    def policy_of(asn: ASN) -> SelectionPolicy:
        return policies.get(asn, default_policy)

    for origination in originations:
        if origination.origin not in graph:
            raise TopologyError(
                f"originating AS {origination.origin} not in topology"
            )

    # selected[asn][prefix] = best announcement at asn
    selected: dict[ASN, dict[Prefix, Announcement]] = {
        asn: {} for asn in graph.ases()
    }
    for origination in originations:
        own = Announcement.originate(origination.prefix, origination.origin)
        selected[origination.origin][origination.prefix] = own

    prefixes = sorted({o.prefix for o in originations})

    rounds = 0
    changed = True
    while changed:
        rounds += 1
        if rounds > _MAX_ROUNDS:
            raise AnnouncementError("BGP did not converge (round cap hit)")
        changed = False
        for asn in graph.ases():
            neighbors = graph.neighbors_of(asn)
            policy = policy_of(asn)

            def has_valid_covering_route(announcement,
                                         _selected=selected[asn],
                                         _policy=policy):
                """Cross-prefix context for SELECTIVE_DROP: does this AS
                currently hold a VALID route whose prefix covers the
                candidate's (and that is not the candidate itself)?"""
                for held in _selected.values():
                    if held.prefix != announcement.prefix and not (
                        held.prefix.covers(announcement.prefix)
                    ):
                        continue
                    if (
                        held.prefix == announcement.prefix
                        and held.origin == announcement.origin
                    ):
                        continue
                    if _policy.validity_of(held) is RouteValidity.VALID:
                        return True
                return False

            for prefix in prefixes:
                current = selected[asn].get(prefix)
                if current is not None and current.is_origination:
                    continue  # own prefix: never replaced
                candidates: list[Announcement] = []
                for neighbor, relationship in neighbors.items():
                    their_route = selected[neighbor].get(prefix)
                    if their_route is None:
                        continue
                    # Would the neighbor export this route to us?  The
                    # neighbor's view of us is the converse relationship.
                    neighbor_view_of_us = graph.relationship(neighbor, asn)
                    if not SelectionPolicy.exports_to(
                        their_route, neighbor_view_of_us
                    ):
                        continue
                    if asn == their_route.origin or asn in their_route.path:
                        continue  # loop prevention
                    candidates.append(
                        their_route.extended_to(asn, neighbor, relationship)
                    )
                best = policy.select(candidates, has_valid_covering_route)
                if best != current:
                    if best is None:
                        del selected[asn][prefix]
                    else:
                        selected[asn][prefix] = best
                    changed = True

    outcome = RoutingOutcome(rounds=rounds)
    for asn in graph.ases():
        rib = Rib()
        for announcement in selected[asn].values():
            rib.install(announcement)
        outcome.ribs[asn] = rib
    return outcome
