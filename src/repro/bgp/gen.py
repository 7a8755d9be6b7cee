"""Random hierarchical AS topologies.

The paper's Table 6 claims are topology-generic; the sweep benchmarks
check them across randomly generated Internets instead of one hand-built
example.  The generator produces the standard three-tier structure of
measured AS graphs: a clique-ish core of tier-1s, a mid tier multi-homed
into it, and stubs multi-homed into the mid tier, with some peering at
the mid tier — all seeded and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..resources import ASN
from .topology import AsGraph

__all__ = ["TopologyConfig", "generate_topology"]

MID_PROVIDERS = 2       # tier-1 providers per mid-tier AS
STUB_PROVIDERS = 2      # mid-tier providers per stub AS
MID_PEERING_PROB = 0.2  # chance that two mid-tier ASes peer


@dataclass(frozen=True)
class TopologyConfig:
    """Shape parameters of the generated Internet."""

    seed: int = 0
    tier1_count: int = 4
    mid_count: int = 12
    stub_count: int = 40

    def __post_init__(self) -> None:
        if self.tier1_count < 1 or self.mid_count < 1 or self.stub_count < 1:
            raise ValueError("every tier must be non-empty")


@dataclass(frozen=True)
class GeneratedTopology:
    graph: AsGraph
    tier1: tuple[ASN, ...]
    mid: tuple[ASN, ...]
    stubs: tuple[ASN, ...]

    def random_stub_pair(self, rng: random.Random) -> tuple[ASN, ASN]:
        """Two distinct stubs (victim, attacker) for attack scenarios."""
        victim, attacker = rng.sample(list(self.stubs), 2)
        return victim, attacker


def generate_topology(config: TopologyConfig = TopologyConfig()) -> GeneratedTopology:
    """Build a random three-tier AS graph, deterministically from the seed.

    AS numbering: tier-1s from 100, mid tier from 1000, stubs from 10000.
    """
    rng = random.Random(config.seed)
    graph = AsGraph()

    tier1 = [ASN(100 + i) for i in range(config.tier1_count)]
    mid = [ASN(1000 + i) for i in range(config.mid_count)]
    stubs = [ASN(10000 + i) for i in range(config.stub_count)]

    # Tier-1 full mesh of peerings (the default-free core).
    for i, left in enumerate(tier1):
        for right in tier1[i + 1:]:
            graph.add_peering(left, right)

    # Mid tier: multi-homed into distinct tier-1s.
    for asn in mid:
        providers = rng.sample(tier1, min(MID_PROVIDERS, len(tier1)))
        for provider in providers:
            graph.add_provider(customer=asn, provider=provider)

    # Some lateral peering at the mid tier.
    for i, left in enumerate(mid):
        for right in mid[i + 1:]:
            if rng.random() < MID_PEERING_PROB:
                graph.add_peering(left, right)

    # Stubs: multi-homed into distinct mid-tier providers.
    for asn in stubs:
        providers = rng.sample(mid, min(STUB_PROVIDERS, len(mid)))
        for provider in providers:
            graph.add_provider(customer=asn, provider=provider)

    return GeneratedTopology(
        graph=graph, tier1=tuple(tier1), mid=tuple(mid), stubs=tuple(stubs)
    )
