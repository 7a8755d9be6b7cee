"""Tests for the random topology generator, incl. valley-free properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import (
    Origination,
    Relationship,
    TopologyConfig,
    generate_topology,
    propagate,
    reachable,
)
from repro.resources import Prefix

from ..helpers import route_at


def links(graph):
    """Every directed link: (local, neighbor, neighbor's role for local)."""
    return [(asn, neighbor, rel) for asn in graph.ases()
            for neighbor, rel in sorted(graph.neighbors_of(asn).items())]


def neighbors(graph, asn, role):
    """The neighbors of *asn* that play *role* for it."""
    return {n for n, rel in graph.neighbors_of(asn).items() if rel is role}


class TestGenerator:
    def test_census(self):
        topo = generate_topology(TopologyConfig(
            tier1_count=3, mid_count=5, stub_count=10
        ))
        assert len(topo.tier1) == 3
        assert len(topo.mid) == 5
        assert len(topo.stubs) == 10
        assert len(topo.graph) == 18

    def test_deterministic(self):
        a = generate_topology(TopologyConfig(seed=7))
        b = generate_topology(TopologyConfig(seed=7))
        assert links(a.graph) == links(b.graph)

    def test_different_seeds_differ(self):
        a = generate_topology(TopologyConfig(seed=1))
        b = generate_topology(TopologyConfig(seed=2))
        assert links(a.graph) != links(b.graph)

    def test_tier1_full_mesh(self):
        topo = generate_topology(TopologyConfig(tier1_count=4))
        for left in topo.tier1:
            peers = neighbors(topo.graph, left, Relationship.PEER)
            assert all(t in peers for t in topo.tier1 if t != left)

    def test_stubs_have_no_customers(self):
        topo = generate_topology(TopologyConfig())
        for stub in topo.stubs:
            assert not neighbors(topo.graph, stub, Relationship.CUSTOMER)

    def test_everyone_has_a_provider_except_tier1(self):
        topo = generate_topology(TopologyConfig())
        for asn in list(topo.mid) + list(topo.stubs):
            assert neighbors(topo.graph, asn, Relationship.PROVIDER)
        for asn in topo.tier1:
            assert not neighbors(topo.graph, asn, Relationship.PROVIDER)

    def test_rejects_empty_tier(self):
        with pytest.raises(ValueError):
            TopologyConfig(tier1_count=0)

    def test_random_stub_pair_distinct(self):
        topo = generate_topology(TopologyConfig())
        victim, attacker = topo.random_stub_pair(random.Random(3))
        assert victim != attacker
        assert victim in topo.stubs and attacker in topo.stubs


class TestUniversalReachability:
    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_stub_prefix_reaches_everyone(self, seed):
        """On any generated topology, a stub's announcement reaches every
        AS (the graph is connected and Gao-Rexford-stable)."""
        topo = generate_topology(TopologyConfig(
            seed=seed, tier1_count=3, mid_count=6, stub_count=10
        ))
        victim = topo.stubs[seed % len(topo.stubs)]
        outcome = propagate(
            topo.graph, [Origination.parse("10.99.0.0/16", victim)]
        )
        for asn in topo.graph.ases():
            assert reachable(outcome, asn, "10.99.1.1", victim)

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_paths_are_valley_free(self, seed):
        """Every selected path follows up* [peer?] down* — no valleys, no
        double peering (Gao-Rexford export discipline)."""
        topo = generate_topology(TopologyConfig(
            seed=seed, tier1_count=3, mid_count=6, stub_count=10
        ))
        victim = topo.stubs[0]
        outcome = propagate(
            topo.graph, [Origination.parse("10.99.0.0/16", victim)]
        )
        for asn in topo.graph.ases():
            route = route_at(outcome, asn, Prefix.parse("10.99.0.0/16"))
            if route is None or route.is_origination:
                continue
            hops = [asn, *route.path]
            # Classify each link along the forwarding direction.
            phases = []
            for here, nxt in zip(hops, hops[1:]):
                rel = topo.graph.relationship(here, nxt)
                phases.append(rel)
            # Once we traverse toward a customer (down), we must never go
            # up or across again; at most one peer link total.
            seen_down = False
            peer_links = 0
            for rel in phases:
                if rel is Relationship.CUSTOMER:
                    seen_down = True
                elif rel is Relationship.PEER:
                    peer_links += 1
                    assert not seen_down, "peer link after going down"
                else:  # PROVIDER (going up)
                    assert not seen_down, "valley: up after down"
                    assert peer_links == 0, "up after peering"
            assert peer_links <= 1
