"""Unit tests for the AS graph."""

import pytest

from repro.bgp import AsGraph, Relationship, TopologyError
from repro.resources import ASN


class TestAsGraph:
    def test_add_provider(self):
        g = AsGraph()
        g.add_provider(customer=64512, provider=1239)
        assert g.relationship(64512, 1239) is Relationship.PROVIDER
        assert g.relationship(1239, 64512) is Relationship.CUSTOMER
        assert len(g) == 2

    def test_add_peering_symmetric(self):
        g = AsGraph()
        g.add_peering(1, 2)
        assert g.relationship(1, 2) is Relationship.PEER
        assert g.relationship(2, 1) is Relationship.PEER

    def test_self_links_rejected(self):
        g = AsGraph()
        with pytest.raises(TopologyError):
            g.add_provider(1, 1)
        with pytest.raises(TopologyError):
            g.add_peering(2, 2)

    def test_conflicting_relationships_rejected(self):
        g = AsGraph()
        g.add_provider(customer=1, provider=2)
        with pytest.raises(TopologyError):
            g.add_peering(1, 2)
        g2 = AsGraph()
        g2.add_peering(1, 2)
        with pytest.raises(TopologyError):
            g2.add_provider(customer=1, provider=2)

    def test_neighbors_view(self):
        g = AsGraph.from_links(
            provider_links=[(10, 1), (10, 2)],  # 10 provides for 1 and 2
            peer_links=[(1, 2)],
        )
        view = g.neighbors_of(1)
        assert view[ASN(10)] is Relationship.PROVIDER
        assert view[ASN(2)] is Relationship.PEER
        view10 = g.neighbors_of(10)
        assert view10[ASN(1)] is Relationship.CUSTOMER

    def test_relationship_lookup(self):
        g = AsGraph.from_links(provider_links=[(10, 1)])
        assert g.relationship(1, 10) is Relationship.PROVIDER
        assert g.relationship(10, 1) is Relationship.CUSTOMER
        with pytest.raises(TopologyError):
            g.relationship(1, 999)

    def test_preference_order(self):
        assert (
            Relationship.CUSTOMER.preference
            < Relationship.PEER.preference
            < Relationship.PROVIDER.preference
        )

    def test_contains_and_ases_sorted(self):
        g = AsGraph.from_links(provider_links=[(30, 2), (30, 1)])
        assert 30 in g and 1 in g and 99 not in g
        assert list(g.ases()) == [ASN(1), ASN(2), ASN(30)]
