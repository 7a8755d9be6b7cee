r"""Tests for Gao-Rexford propagation, selection, and forwarding.

Reference topology (providers above customers, ``===`` is peering)::

        100 === 200          tier 1
       /   \   /   \
     10     20      30       mid tier
      |      |       |
      1      2       3       stubs
      4 (victim, customer of 10)
    666 (attacker, customer of 30)
"""

import pytest

from repro.bgp import (
    Announcement,
    AnnouncementError,
    AsGraph,
    Hijack,
    LocalPolicy,
    Origination,
    Relationship,
    SelectionPolicy,
    forward,
    policy_table,
    propagate,
    reachable,
    subprefix_hijack,
)
from repro.resources import ASN, Prefix
from repro.rp import VRP, Route, RouteValidity, VrpSet, validate

from ..helpers import route_at


@pytest.fixture
def graph():
    return AsGraph.from_links(
        provider_links=[
            (100, 10), (100, 20), (200, 20), (200, 30),
            (10, 1), (20, 2), (30, 3), (10, 4), (30, 666),
        ],
        peer_links=[(100, 200)],
    )


def p(text):
    return Prefix.parse(text)


def prefix_hijack(prefix_text, victim, attacker):
    """The attacker originates the victim's exact prefix."""
    return Hijack(victim=Origination.parse(prefix_text, victim),
                  attack=Origination.parse(prefix_text, attacker))


class TestAnnouncement:
    def test_originate(self):
        a = Announcement.originate(p("10.0.0.0/8"), 4)
        assert a.is_origination and a.next_hop is None and a.path_length == 0

    def test_extension(self):
        a = Announcement.originate(p("10.0.0.0/8"), 4)
        b = a.extended_to(ASN(10), ASN(4), Relationship.CUSTOMER)
        assert b.path == (ASN(4),)
        assert b.next_hop == ASN(4)
        assert b.origin == ASN(4)

    def test_loop_prevention(self):
        a = Announcement.originate(p("10.0.0.0/8"), 4)
        b = a.extended_to(ASN(10), ASN(4), Relationship.CUSTOMER)
        with pytest.raises(AnnouncementError):
            b.extended_to(ASN(4), ASN(10), Relationship.PROVIDER)

    def test_path_must_end_at_origin(self):
        with pytest.raises(AnnouncementError):
            Announcement(p("10.0.0.0/8"), ASN(1), (ASN(2),), Relationship.PEER)


class TestBasicPropagation:
    def test_everyone_learns_a_stub_prefix(self, graph):
        outcome = propagate(graph, [Origination.parse("10.4.0.0/16", 4)])
        for asn in graph.ases():
            assert p("10.4.0.0/16") in outcome.rib_of(asn), f"{asn} has no route"

    def test_paths_are_valley_free(self, graph):
        outcome = propagate(graph, [Origination.parse("10.4.0.0/16", 4)])
        # AS 3's path must go up to 30, across the tier-1s, and down:
        route = route_at(outcome, 3, p("10.4.0.0/16"))
        assert route.path == (ASN(30), ASN(200), ASN(100), ASN(10), ASN(4))

    def test_customer_routes_preferred(self, graph):
        # AS 100 hears 10.4/16 from its customer 10; that's what it uses.
        outcome = propagate(graph, [Origination.parse("10.4.0.0/16", 4)])
        route = route_at(outcome, 100, p("10.4.0.0/16"))
        assert route.learned_from is Relationship.CUSTOMER
        assert route.path == (ASN(10), ASN(4))

    def test_peer_route_used_when_no_customer_route(self, graph):
        outcome = propagate(graph, [Origination.parse("10.4.0.0/16", 4)])
        route = route_at(outcome, 200, p("10.4.0.0/16"))
        assert route.learned_from is Relationship.PEER
        assert route.path == (ASN(100), ASN(10), ASN(4))

    def test_origin_keeps_own_route(self, graph):
        outcome = propagate(graph, [Origination.parse("10.4.0.0/16", 4)])
        assert route_at(outcome, 4, p("10.4.0.0/16")).is_origination

    def test_multihomed_prefers_shorter_or_deterministic(self, graph):
        # AS 20 is a customer of both tier 1s; for a prefix originated at 2
        # everyone still converges and 20 uses its own customer.
        outcome = propagate(graph, [Origination.parse("10.2.0.0/16", 2)])
        assert route_at(outcome, 20, p("10.2.0.0/16")).learned_from is (
            Relationship.CUSTOMER
        )

    def test_unknown_origin_rejected(self, graph):
        from repro.bgp import TopologyError

        with pytest.raises(TopologyError):
            propagate(graph, [Origination.parse("10.0.0.0/8", 9999)])

    def test_convergence_rounds_reported(self, graph):
        outcome = propagate(graph, [Origination.parse("10.4.0.0/16", 4)])
        assert 1 <= outcome.rounds <= 10


class TestForwarding:
    def test_delivery_follows_selected_routes(self, graph):
        outcome = propagate(graph, [Origination.parse("10.4.0.0/16", 4)])
        delivery = forward(outcome, 3, "10.4.1.1")
        assert delivery.delivered_to is not None
        assert delivery.delivered_to == ASN(4)
        assert delivery.hops[0] == ASN(3) and delivery.hops[-1] == ASN(4)

    def test_blackhole_when_no_route(self, graph):
        outcome = propagate(graph, [Origination.parse("10.4.0.0/16", 4)])
        delivery = forward(outcome, 3, "192.0.2.1")
        assert delivery.blackholed and delivery.delivered_to is None

    def test_reachable_metric(self, graph):
        outcome = propagate(graph, [Origination.parse("10.4.0.0/16", 4)])
        assert reachable(outcome, 3, "10.4.1.1", intended_origin=4)
        assert not reachable(outcome, 3, "10.4.1.1", intended_origin=666)


class TestHijacks:
    def test_prefix_hijack_splits_the_internet(self, graph):
        hijack = prefix_hijack("10.4.0.0/16", victim=4, attacker=666)
        outcome = propagate(graph, hijack.originations)
        # ASes near the victim still reach it; ASes near the attacker don't.
        assert reachable(outcome, 1, "10.4.1.1", 4)
        assert not reachable(outcome, 3, "10.4.1.1", 4)
        assert forward(outcome, 3, "10.4.1.1").delivered_to == ASN(666)

    def test_subprefix_hijack_wins_everywhere(self, graph):
        hijack = subprefix_hijack("10.4.0.0/16", victim=4, attacker=666)
        outcome = propagate(graph, hijack.originations)
        # Longest-prefix match: even AS 1, right next to the victim, loses
        # traffic for addresses in the hijacked half.
        hijacked_addr = "10.4.1.1"  # inside 10.4.0.0/17 (the low half)
        assert not reachable(outcome, 1, hijacked_addr, 4)
        assert forward(outcome, 1, hijacked_addr).delivered_to == ASN(666)
        # Addresses in the other half still reach the victim.
        assert reachable(outcome, 1, "10.4.200.1", 4)


class TestRpkiPolicies:
    """Route validity feeding selection: the Table 6 mechanics."""

    def oracle(self, *vrp_specs):
        vrps = VrpSet(VRP.parse(text, asn) for text, asn in vrp_specs)
        return lambda route: validate(
            route.prefix, route.origin, vrps).state

    def test_drop_invalid_stops_subprefix_hijack(self, graph):
        validity = self.oracle(("10.4.0.0/16", 4))
        policies = policy_table(
            list(graph.ases()), LocalPolicy.DROP_INVALID, validity
        )
        hijack = subprefix_hijack("10.4.0.0/16", victim=4, attacker=666)
        outcome = propagate(graph, hijack.originations, policies)
        # The hijacked route (10.4.0.0/17, AS666) is invalid -> dropped
        # everywhere; the victim keeps all traffic.
        assert reachable(outcome, 3, "10.4.1.1", 4)
        assert hijack.attack.prefix not in outcome.rib_of(3)

    def test_depref_invalid_fails_against_subprefix_hijack(self, graph):
        validity = self.oracle(("10.4.0.0/16", 4))
        policies = policy_table(
            list(graph.ases()), LocalPolicy.DEPREF_INVALID, validity
        )
        hijack = subprefix_hijack("10.4.0.0/16", victim=4, attacker=666)
        outcome = propagate(graph, hijack.originations, policies)
        # "this policy does not prevent subprefix hijacks": the invalid
        # subprefix route is the only route for its prefix -> selected.
        assert not reachable(outcome, 3, "10.4.1.1", 4)

    def test_drop_invalid_loses_prefix_when_roa_whacked(self, graph):
        # The victim's route is invalid (whacked ROA + covering ROA);
        # drop-invalid ASes lose the prefix entirely.
        validity = self.oracle(("10.0.0.0/8", 10))  # covering, not matching
        policies = policy_table(
            list(graph.ases()), LocalPolicy.DROP_INVALID, validity
        )
        outcome = propagate(
            graph, [Origination.parse("10.4.0.0/16", 4)], policies
        )
        assert p("10.4.0.0/16") not in outcome.rib_of(3)
        assert not reachable(outcome, 3, "10.4.1.1", 4)

    def test_depref_invalid_survives_roa_whack(self, graph):
        validity = self.oracle(("10.0.0.0/8", 10))
        policies = policy_table(
            list(graph.ases()), LocalPolicy.DEPREF_INVALID, validity
        )
        outcome = propagate(
            graph, [Origination.parse("10.4.0.0/16", 4)], policies
        )
        # Invalid route still selected: there is no valid alternative.
        assert reachable(outcome, 3, "10.4.1.1", 4)

    def test_depref_prefers_valid_over_invalid_same_prefix(self, graph):
        # Victim 4 has the ROA; attacker 666 announces the same prefix.
        validity = self.oracle(("10.4.0.0/16", 4))
        policies = policy_table(
            list(graph.ases()), LocalPolicy.DEPREF_INVALID, validity
        )
        hijack = prefix_hijack("10.4.0.0/16", victim=4, attacker=666)
        outcome = propagate(graph, hijack.originations, policies)
        # Even AS 3 (right above the attacker) prefers the valid route.
        assert reachable(outcome, 3, "10.4.1.1", 4)

    def test_rpki_off_ignores_validity(self, graph):
        validity = self.oracle(("10.4.0.0/16", 4))
        policies = policy_table(
            list(graph.ases()), LocalPolicy.RPKI_OFF, validity
        )
        hijack = subprefix_hijack("10.4.0.0/16", victim=4, attacker=666)
        outcome = propagate(graph, hijack.originations, policies)
        assert not reachable(outcome, 1, "10.4.1.1", 4)

    def test_policy_overrides(self, graph):
        validity = self.oracle(("10.4.0.0/16", 4))
        policies = policy_table(
            list(graph.ases()),
            LocalPolicy.RPKI_OFF,
            validity,
            overrides={ASN(30): LocalPolicy.DROP_INVALID},
        )
        hijack = subprefix_hijack("10.4.0.0/16", victim=4, attacker=666)
        outcome = propagate(graph, hijack.originations, policies)
        # AS 30 dropped the invalid route — and since it is the attacker's
        # only provider, filtering at the chokepoint contains the hijack
        # for the whole Internet, even though everyone else is RPKI-off.
        assert hijack.attack.prefix not in outcome.rib_of(30)
        assert hijack.attack.prefix not in outcome.rib_of(100)
        assert reachable(outcome, 1, "10.4.1.1", 4)
        assert reachable(outcome, 2, "10.4.1.1", 4)


class TestRibLookup:
    def test_lpm_prefers_more_specific(self, graph):
        from repro.bgp import Rib

        rib = Rib()
        rib.install(Announcement.originate(p("10.0.0.0/8"), 1))
        rib.install(Announcement.originate(p("10.4.0.0/16"), 1))
        hit = rib.lookup(p("10.4.1.1/32"))
        assert hit.prefix == p("10.4.0.0/16")
        assert rib.lookup(p("10.200.0.0/16")).prefix == p("10.0.0.0/8")
        assert rib.lookup(p("11.0.0.0/8")) is None

    def test_cached_views_stable_until_mutation(self):
        from repro.bgp import Rib

        rib = Rib()
        rib.install(Announcement.originate(p("10.0.0.0/8"), 1))
        rib.install(Announcement.originate(p("10.4.0.0/16"), 1))
        prefixes = rib.prefixes()
        assert prefixes == (p("10.0.0.0/8"), p("10.4.0.0/16"))  # address order
        # Read-only calls serve the same tuple object — no rebuild.
        assert rib.prefixes() is prefixes

    def test_views_invalidated_by_install_and_withdraw(self):
        from repro.bgp import Rib

        rib = Rib()
        rib.install(Announcement.originate(p("10.0.0.0/8"), 1))
        stale = rib.prefixes()
        rib.install(Announcement.originate(p("11.0.0.0/8"), 2))
        assert rib.prefixes() == (p("10.0.0.0/8"), p("11.0.0.0/8"))
        assert rib.prefixes() is not stale
        # A Rib has no withdraw: a new route for a prefix replaces the old
        # one, which leaves the cached view just as a withdrawal would.
        prefixes = rib.prefixes()
        rib.install(Announcement.originate(p("10.0.0.0/8"), 3))
        assert rib.prefixes() is not prefixes
        assert [rib.lookup(prefix).origin for prefix in rib.prefixes()] == [
            ASN(3), ASN(2)]


class TestSelectiveDrop:
    """The open-problem policy: drop invalid only when a valid covering
    route makes dropping safe."""

    def oracle(self, *vrp_specs):
        vrps = VrpSet(VRP.parse(text, asn) for text, asn in vrp_specs)
        return lambda route: validate(
            route.prefix, route.origin, vrps).state

    def test_filters_subprefix_hijack_like_drop_invalid(self, graph):
        validity = self.oracle(("10.4.0.0/16", 4))
        policies = policy_table(
            list(graph.ases()), LocalPolicy.SELECTIVE_DROP, validity
        )
        hijack = subprefix_hijack("10.4.0.0/16", victim=4, attacker=666)
        outcome = propagate(graph, hijack.originations, policies)
        assert reachable(outcome, 3, "10.4.1.1", 4)
        assert hijack.attack.prefix not in outcome.rib_of(3)

    def test_survives_roa_whack_like_depref(self, graph):
        validity = self.oracle(("10.0.0.0/8", 10))  # covering, not matching
        policies = policy_table(
            list(graph.ases()), LocalPolicy.SELECTIVE_DROP, validity
        )
        outcome = propagate(
            graph, [Origination.parse("10.4.0.0/16", 4)], policies
        )
        # The invalid route is kept: dropping it would strand the prefix.
        assert reachable(outcome, 3, "10.4.1.1", 4)

    def test_prefers_valid_over_invalid_same_prefix(self, graph):
        validity = self.oracle(("10.4.0.0/16", 4))
        policies = policy_table(
            list(graph.ases()), LocalPolicy.SELECTIVE_DROP, validity
        )
        hijack = prefix_hijack("10.4.0.0/16", victim=4, attacker=666)
        outcome = propagate(graph, hijack.originations, policies)
        assert reachable(outcome, 3, "10.4.1.1", 4)

    def test_combined_attack_defeats_it(self, graph):
        # No VRPs at all (everything whacked): the hijack is unknown and
        # sails through.
        validity = self.oracle()
        policies = policy_table(
            list(graph.ases()), LocalPolicy.SELECTIVE_DROP, validity
        )
        hijack = subprefix_hijack("10.4.0.0/16", victim=4, attacker=666)
        outcome = propagate(graph, hijack.originations, policies)
        assert not reachable(outcome, 3, "10.4.1.1", 4)

    def test_no_context_fails_open(self):
        from repro.bgp import Announcement, Relationship, SelectionPolicy
        from repro.rp import RouteValidity

        policy = SelectionPolicy(
            LocalPolicy.SELECTIVE_DROP,
            lambda route: RouteValidity.INVALID,
        )
        invalid = Announcement.originate(p("10.0.0.0/8"), 1).extended_to(
            ASN(2), ASN(1), Relationship.CUSTOMER
        )
        # Without cross-prefix context the policy must never strand.
        assert policy.usable(invalid) is True


class TestForwardingEdgeCases:
    def test_loop_detection(self):
        """Hand-built inconsistent RIBs (as a misconfiguration would
        produce) must be caught by the forwarding walk, not spin."""
        from repro.bgp import Rib, RoutingOutcome

        outcome = RoutingOutcome()
        # AS 1 forwards 10/8 to AS 2; AS 2 forwards it back to AS 1.
        rib1, rib2 = Rib(), Rib()
        rib1.install(Announcement(
            p("10.0.0.0/8"), ASN(99), (ASN(2), ASN(99)), Relationship.PEER
        ))
        rib2.install(Announcement(
            p("10.0.0.0/8"), ASN(99), (ASN(1), ASN(99)), Relationship.PEER
        ))
        outcome.ribs[ASN(1)] = rib1
        outcome.ribs[ASN(2)] = rib2
        delivery = forward(outcome, 1, "10.1.2.3")
        assert delivery.looped
        assert delivery.delivered_to is None
        assert delivery.hops[:3] == (ASN(1), ASN(2), ASN(1))

    def test_max_hops_guard(self, monkeypatch):
        """A long non-repeating chain is cut off at MAX_HOPS."""
        from repro.bgp import Rib, RoutingOutcome, forwarding

        monkeypatch.setattr(forwarding, "MAX_HOPS", 5)
        outcome = RoutingOutcome()
        chain_length = 10
        for index in range(chain_length):
            rib = Rib()
            next_asn = ASN(index + 2)
            rib.install(Announcement(
                p("10.0.0.0/8"), ASN(999),
                (next_asn, ASN(999)), Relationship.PEER,
            ))
            outcome.ribs[ASN(index + 1)] = rib
        delivery = forward(outcome, 1, "10.1.2.3")
        assert delivery.delivered_to is None

    def test_prefix_destination_normalized_to_host(self):
        outcome = propagate(
            AsGraph.from_links(provider_links=[(10, 4)]),
            [Origination.parse("10.4.0.0/16", 4)],
        )
        delivery = forward(outcome, 10, p("10.4.0.0/16"))
        assert delivery.delivered_to == ASN(4)
