"""AS-level topology with business relationships.

The standard academic model of interdomain structure (and the one the
paper's authors use in their companion work, e.g. Goldberg et al.,
SIGCOMM'10): ASes connected by *customer-provider* or *peer-peer* links,
with Gao–Rexford routing policies defined over those relationships.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

from ..resources import ASN
from .errors import TopologyError

__all__ = ["Relationship", "AsGraph"]


class Relationship(enum.Enum):
    """How a neighbor's route was learned, from the local AS's viewpoint."""

    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"

    @property
    def preference(self) -> int:
        """Gao–Rexford preference class: customers best (0), providers worst."""
        return _PREFS[self]


_PREFS = {
    Relationship.CUSTOMER: 0,
    Relationship.PEER: 1,
    Relationship.PROVIDER: 2,
}


class AsGraph:
    """An AS-level topology: nodes are ASNs, edges carry relationships."""

    def __init__(self) -> None:
        self._providers: dict[ASN, set[ASN]] = {}
        self._customers: dict[ASN, set[ASN]] = {}
        self._peers: dict[ASN, set[ASN]] = {}

    # -- construction ---------------------------------------------------------

    def add_as(self, asn: ASN | int) -> ASN:
        asn = ASN(int(asn))
        self._providers.setdefault(asn, set())
        self._customers.setdefault(asn, set())
        self._peers.setdefault(asn, set())
        return asn

    def add_provider(self, customer: ASN | int, provider: ASN | int) -> None:
        """Record that *provider* sells transit to *customer*."""
        customer = self.add_as(customer)
        provider = self.add_as(provider)
        if customer == provider:
            raise TopologyError(f"{customer} cannot be its own provider")
        if provider in self._peers[customer] or customer in self._providers[provider]:
            raise TopologyError(
                f"conflicting relationship between {customer} and {provider}"
            )
        self._providers[customer].add(provider)
        self._customers[provider].add(customer)

    def add_peering(self, left: ASN | int, right: ASN | int) -> None:
        """Record a settlement-free peering between two ASes."""
        left = self.add_as(left)
        right = self.add_as(right)
        if left == right:
            raise TopologyError(f"{left} cannot peer with itself")
        if right in self._providers[left] or right in self._customers[left]:
            raise TopologyError(
                f"conflicting relationship between {left} and {right}"
            )
        self._peers[left].add(right)
        self._peers[right].add(left)

    # -- queries ------------------------------------------------------------------

    def ases(self) -> Iterator[ASN]:
        return iter(sorted(self._providers))

    def __contains__(self, asn: ASN | int) -> bool:
        return ASN(int(asn)) in self._providers

    def __len__(self) -> int:
        return len(self._providers)

    def neighbors_of(self, asn: ASN | int) -> dict[ASN, Relationship]:
        """All neighbors with the *local* AS's view of the relationship."""
        asn = ASN(int(asn))
        out: dict[ASN, Relationship] = {}
        for neighbor in self._customers[asn]:
            out[neighbor] = Relationship.CUSTOMER
        for neighbor in self._peers[asn]:
            out[neighbor] = Relationship.PEER
        for neighbor in self._providers[asn]:
            out[neighbor] = Relationship.PROVIDER
        return out

    def relationship(self, local: ASN | int, neighbor: ASN | int) -> Relationship:
        """The relationship of *neighbor* as seen from *local*."""
        local, neighbor = ASN(int(local)), ASN(int(neighbor))
        if neighbor in self._customers[local]:
            return Relationship.CUSTOMER
        if neighbor in self._peers[local]:
            return Relationship.PEER
        if neighbor in self._providers[local]:
            return Relationship.PROVIDER
        raise TopologyError(f"{neighbor} is not adjacent to {local}")

    # -- convenience builders ------------------------------------------------------

    @classmethod
    def from_links(
        cls,
        provider_links: Iterable[tuple[int, int]] = (),
        peer_links: Iterable[tuple[int, int]] = (),
    ) -> "AsGraph":
        """Build from ``(provider, customer)`` and ``(left, right)`` pairs."""
        graph = cls()
        for provider, customer in provider_links:
            graph.add_provider(customer, provider)
        for left, right in peer_links:
            graph.add_peering(left, right)
        return graph
