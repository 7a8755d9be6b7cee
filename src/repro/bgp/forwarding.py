"""The data plane: hop-by-hop longest-prefix-match forwarding.

Control-plane convergence says who *selected* which route; delivery is
decided hop by hop, each AS forwarding to the next hop of its own most
specific matching route.  Modeling the walk explicitly is what lets the
simulator show interception: a subprefix hijacker attracts packets at
*every* hop whose RIB contains the more specific route, regardless of what
the sender selected.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..resources import ASN, Prefix, parse_address
from .propagation import RoutingOutcome

__all__ = ["DeliveryOutcome", "forward", "reachable"]

# Hops a packet may take before the walk gives up (a guard: loops are
# caught by the visited set long before).
MAX_HOPS = 64


@dataclass(frozen=True)
class DeliveryOutcome:
    """What happened to a packet sent from *source* toward *destination*."""

    source: ASN
    destination: Prefix
    delivered_to: ASN | None   # the AS that terminated the packet
    hops: tuple[ASN, ...]      # the ASes traversed, source first
    blackholed: bool           # some hop had no route
    looped: bool               # forwarding revisited an AS


def forward(
    outcome: RoutingOutcome,
    source: ASN | int,
    destination: str | Prefix,
) -> DeliveryOutcome:
    """Trace a packet from *source* toward *destination* (an address).

    *destination* may be an address string or a host prefix.  The packet
    terminates at the first AS that originates the route its own RIB
    matches — the origin's network delivers locally.  If some hop has no
    covering route, the packet is blackholed there.  A walk still going
    after :data:`MAX_HOPS` hops counts as a loop.
    """
    source = ASN(int(source))
    if isinstance(destination, str):
        afi, address = parse_address(destination)
        destination = Prefix(afi, address, afi.bits)
    elif destination.length != destination.afi.bits:
        destination = Prefix(
            destination.afi, destination.network, destination.afi.bits
        )

    hops: list[ASN] = [source]
    visited = {source}
    current = source
    for _ in range(MAX_HOPS):
        route = outcome.rib_of(current).lookup(destination)
        if route is None:
            return DeliveryOutcome(
                source=source, destination=destination, delivered_to=None,
                hops=tuple(hops), blackholed=True, looped=False,
            )
        if route.is_origination:
            return DeliveryOutcome(
                source=source, destination=destination, delivered_to=current,
                hops=tuple(hops), blackholed=False, looped=False,
            )
        next_hop = route.next_hop
        assert next_hop is not None
        if next_hop in visited:
            return DeliveryOutcome(
                source=source, destination=destination, delivered_to=None,
                hops=tuple(hops + [next_hop]), blackholed=False, looped=True,
            )
        visited.add(next_hop)
        hops.append(next_hop)
        current = next_hop
    return DeliveryOutcome(
        source=source, destination=destination, delivered_to=None,
        hops=tuple(hops), blackholed=False, looped=True,
    )


def reachable(
    outcome: RoutingOutcome,
    source: ASN | int,
    destination: str | Prefix,
    intended_origin: ASN | int,
) -> bool:
    """True iff packets from *source* actually reach *intended_origin*.

    The paper's Table 6 metric: "prefix reachable during..." — delivery to
    a hijacker counts as unreachable.
    """
    delivery = forward(outcome, source, destination)
    return delivery.delivered_to == ASN(int(intended_origin))
