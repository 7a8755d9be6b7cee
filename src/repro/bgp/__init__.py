"""BGP simulation: topology, Gao–Rexford propagation, RPKI-aware policies,
longest-prefix-match forwarding, and origin hijack attacks."""

from .attacks import Hijack, subprefix_hijack
from .errors import AnnouncementError, BgpError, TopologyError
from .forwarding import DeliveryOutcome, forward, reachable
from .gen import GeneratedTopology, TopologyConfig, generate_topology
from .policy import LocalPolicy, SelectionPolicy, policy_table
from .propagation import Origination, RoutingOutcome, propagate
from .routes import Announcement, Rib
from .topology import AsGraph, Relationship

__all__ = [
    "Announcement",
    "AnnouncementError",
    "AsGraph",
    "BgpError",
    "DeliveryOutcome",
    "GeneratedTopology",
    "TopologyConfig",
    "generate_topology",
    "Hijack",
    "LocalPolicy",
    "Origination",
    "Relationship",
    "Rib",
    "RoutingOutcome",
    "SelectionPolicy",
    "TopologyError",
    "forward",
    "policy_table",
    "propagate",
    "reachable",
    "subprefix_hijack",
]
