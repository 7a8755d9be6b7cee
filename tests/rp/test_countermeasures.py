"""Tests for the hardening extensions the paper cites as concurrent work:
multiple publication points, Suspenders, and local trust-anchor overrides.
"""

import random

import pytest

from repro.core import execute_whack, plan_whack
from repro.crypto import RsaPublicKey
from repro.modelgen import build_figure2
from repro.repository import FaultInjector, FaultKind, Fetcher
from repro.rp import (
    LocalOverrides,
    RelyingParty,
    Route,
    RouteValidity,
    SuspendersRelyingParty,
    VRP,
    VrpSet,
    classify_with_overrides,
    validate,
)
from repro.rpki.ca import CRL_FILE
from repro.simtime import DAY, HOUR

from ..rpki.reference_build import build_crl


def state_of(route, vrps):
    return validate(route.prefix, route.origin, vrps).state


@pytest.fixture
def world():
    return build_figure2()


def make_rp(world, **kwargs):
    fetcher = Fetcher(world.registry, world.clock,
                      faults=kwargs.pop("faults", None))
    return RelyingParty(world.trust_anchors, fetcher, **kwargs)


class TestMultiplePublicationPoints:
    def add_mirror(self, world):
        sprint_server = world.registry.by_host("sprint.example")
        mirror_uri = "rsync://sprint.example/mirror/continental/"
        mirror = sprint_server.mount(mirror_uri)
        world.continental.enable_mirror(mirror_uri, mirror)
        return mirror_uri

    def test_mirror_carries_identical_content(self, world):
        mirror_uri = self.add_mirror(world)
        primary = world.continental.publication_point
        mirror = world.registry.resolve(mirror_uri)
        assert {n: primary.get(n) for n in primary.names()} == {
            n: mirror.get(n) for n in mirror.names()
        }

    def test_certificate_advertises_mirror(self, world):
        mirror_uri = self.add_mirror(world)
        assert world.continental.certificate.sia_mirrors == (mirror_uri,)
        assert world.continental.certificate.all_publication_uris == (
            "rsync://continental.example/repo/", mirror_uri,
        )

    def test_rp_discovers_and_fetches_mirror(self, world):
        mirror_uri = self.add_mirror(world)
        rp = make_rp(world)
        report = rp.refresh()
        assert mirror_uri in {f.uri for f in report.fetches}
        assert len(rp.vrps) == 8

    def test_mirror_heals_unreachable_primary(self, world):
        from repro.resources import Prefix

        mirror_uri = self.add_mirror(world)
        continental_host = Prefix.parse("63.174.23.0/32")
        fetcher = Fetcher(
            world.registry, world.clock,
            reachability=lambda loc: loc.host_prefix != continental_host,
        )
        rp = RelyingParty(world.trust_anchors, fetcher)
        report = rp.refresh()
        # Without the mirror this scenario loses all 5 Continental ROAs
        # (see TestUnreachableRepository in test_pathval).  With it:
        assert len(rp.vrps) == 8
        assert report.run.has_issue("using-mirror")

    def test_mirror_outvotes_corrupted_primary(self, world):
        mirror_uri = self.add_mirror(world)
        faults = FaultInjector(seed=2)
        faults.schedule(
            FaultKind.CORRUPT, "rsync://continental.example/repo/",
            file_name=world.target20_name,
        )
        rp = make_rp(world, faults=faults)
        report = rp.refresh()
        # The corrupted primary copy fails its manifest check; the clean
        # mirror copy is used instead — nothing is lost.
        assert len(rp.vrps) == 8
        assert report.run.has_issue("using-mirror")

    def test_mirror_breaks_the_se7_loop(self, world):
        """The circularity fix: a mirror *outside* Continental's own
        prefix keeps the ROA retrievable even when the route to the
        primary repository is invalid."""
        from repro.bgp import LocalPolicy
        from repro.core import ClosedLoopSimulation
        from repro.modelgen import figure2_bgp

        self.add_mirror(world)
        world.sprint.issue_roa(1239, "63.160.0.0/12-13")  # condition (b)
        graph, originations, rp_asn = figure2_bgp()
        faults = FaultInjector(seed=7)
        loop = ClosedLoopSimulation(
            registry=world.registry,
            authorities=[world.arin],
            graph=graph,
            originations=originations,
            rp_asn=rp_asn,
            policy=LocalPolicy.DROP_INVALID,
            clock=world.clock,
            faults=faults,
        )
        loop.step()
        faults.schedule(
            FaultKind.CORRUPT, "rsync://continental.example/repo/",
            file_name=world.target20_name,
        )
        loop.step()
        for _ in range(3):
            loop.step()
        # With the mirror (hosted in Sprint's 144.228/16), the good ROA is
        # always retrievable: the transient fault heals even under
        # drop-invalid.
        assert loop.route_is_valid("63.174.16.0/20", 17054)
        assert loop.can_reach("63.174.23.0", 17054)


class TestSuspenders:
    def make(self, world, grace=3 * HOUR):
        rp = make_rp(world)
        return SuspendersRelyingParty(rp, grace_seconds=grace)

    def test_rejects_nonpositive_grace(self, world):
        with pytest.raises(ValueError):
            SuspendersRelyingParty(make_rp(world), grace_seconds=0)

    def test_steady_state_matches_plain_rp(self, world):
        srp = self.make(world)
        srp.refresh()
        assert len(srp.vrps) == 8
        assert srp.retained == []

    def test_stealthy_whack_is_blunted(self, world):
        srp = self.make(world)
        srp.refresh()
        plan = plan_whack(world.sprint, world.target20, world.continental)
        execute_whack(plan)
        world.clock.advance(HOUR)
        srp.refresh()
        # The plain RP has lost the ROA...
        assert srp.rp.classify_parts("63.174.16.0/20", 17054) is not (
            RouteValidity.VALID
        )
        # ...but the fail-safe retains it.
        assert srp.classify_parts("63.174.16.0/20", 17054) is RouteValidity.VALID
        assert len(srp.retained) == 1
        assert "without CRL corroboration" in srp.retained[0].reason

    def test_retention_expires_after_grace(self, world):
        srp = self.make(world, grace=2 * HOUR)
        srp.refresh()
        world.continental.delete_object(world.target20_name)
        world.clock.advance(HOUR)
        srp.refresh()
        assert srp.classify_parts("63.174.16.0/20", 17054) is RouteValidity.VALID
        world.clock.advance(3 * HOUR)
        srp.refresh()
        assert srp.classify_parts("63.174.16.0/20", 17054) is not (
            RouteValidity.VALID
        )
        assert srp.retained == []

    def test_transparent_revocation_honored_immediately(self, world):
        srp = self.make(world)
        srp.refresh()
        world.continental.revoke_roa(world.target20_name)
        world.clock.advance(HOUR)
        srp.refresh()
        assert srp.retained == []
        assert srp.classify_parts("63.174.16.0/20", 17054) is not (
            RouteValidity.VALID
        )

    def test_forged_crl_does_not_cancel_retention(self, world, key_factory):
        # Whoever can delete the ROA from the publication point can also
        # drop a "CRL" naming its EE serial beside the hole.  It is not
        # signed by Continental, so it corroborates nothing.
        srp = self.make(world)
        srp.refresh()
        serial = world.target20.ee_cert.serial
        world.continental.delete_object(world.target20_name)
        forged = build_crl(
            issuer_key=key_factory.next_keypair(),
            issuer_key_id=world.continental.key_id,
            revoked_serials={serial},
            serial=999,
            this_update=world.clock.now,
            next_update=world.clock.now + DAY,
        )
        world.continental.publication_point.put(CRL_FILE, forged.to_bytes())
        world.clock.advance(HOUR)
        report = srp.refresh()
        assert report.run.has_issue("crl-bad-signature")
        assert [r.ee_serial for r in srp.retained] == [serial]
        assert srp.classify_parts("63.174.16.0/20", 17054) is RouteValidity.VALID

    def test_natural_expiry_honored_immediately(self, world):
        srp = self.make(world, grace=365 * DAY)
        srp.refresh()
        world.clock.advance(91 * DAY)  # every ROA expires, none renewed
        srp.refresh()
        assert srp.retained == []
        assert len(srp.vrps) == 0

    def test_reappearance_clears_retention(self, world):
        srp = self.make(world, grace=10 * HOUR)
        srp.refresh()
        world.continental.delete_object(world.target20_name)
        world.clock.advance(HOUR)
        srp.refresh()
        assert len(srp.retained) == 1
        # Operator fixes the mistake: reissues the same payload.
        world.continental.issue_roa(17054, "63.174.16.0/20")
        world.clock.advance(HOUR)
        srp.refresh()
        assert srp.retained == []
        assert srp.classify_parts("63.174.16.0/20", 17054) is RouteValidity.VALID

    def test_late_crl_corroboration_clears_retention(self, world):
        srp = self.make(world, grace=10 * HOUR)
        srp.refresh()
        roa = world.target20
        world.continental.delete_object(world.target20_name)  # sloppy
        world.clock.advance(HOUR)
        srp.refresh()
        assert len(srp.retained) == 1
        # The authority follows up with a proper CRL entry.
        world.continental._revoke(roa.ee_cert.serial)
        world.continental.publish()
        world.clock.advance(HOUR)
        srp.refresh()
        assert srp.retained == []


class TestLocalOverrides:
    FIGURE2 = VrpSet(VRP.parse(t, a) for t, a in [
        ("63.174.16.0/20", 17054),
        ("63.174.16.0/22", 7341),
    ])

    def test_empty_overrides_are_identity(self):
        overrides = LocalOverrides()
        assert overrides.is_empty
        route = Route.parse("63.174.16.0/20", 17054)
        assert classify_with_overrides(route, self.FIGURE2, overrides) is (
            state_of(route, self.FIGURE2)
        )

    def test_pin_defeats_whack(self):
        # The RPKI lost the /20 ROA (whacked) while Sprint's /12-13 ROA
        # covers it, so the route is INVALID; the operator pins it back.
        whacked = VrpSet([
            VRP.parse("63.174.16.0/22", 7341),
            VRP.parse("63.160.0.0/12-13", 1239),
        ])
        overrides = LocalOverrides().pin("63.174.16.0/20", 17054)
        route = Route.parse("63.174.16.0/20", 17054)
        assert state_of(route, whacked) is RouteValidity.INVALID
        assert classify_with_overrides(route, whacked, overrides) is (
            RouteValidity.VALID
        )

    def test_filter_distrusts_a_binding(self):
        overrides = LocalOverrides().filter("63.174.16.0/22", 7341)
        route = Route.parse("63.174.16.0/22", 7341)
        # Without the /22 VRP, the /20 still covers: invalid.
        assert classify_with_overrides(route, self.FIGURE2, overrides) is (
            RouteValidity.INVALID
        )

    def test_overrides_are_local_not_global(self):
        # Classifying under overrides never mutates the input VRP set.
        overrides = LocalOverrides().filter("63.174.16.0/22", 7341).pin(
            "63.174.17.0/24", 64999)
        before = self.FIGURE2.as_frozenset()
        classify_with_overrides(Route.parse("63.174.17.0/24", 64999),
                                self.FIGURE2, overrides)
        assert self.FIGURE2.as_frozenset() == before

    def test_agrees_with_the_whole_table_oracle(self):
        # Filters by prefix, origin and both and pins inside and beside
        # the table, against routes at, under and around the table's
        # prefixes.
        from .reference_overrides import classify

        rng = random.Random(43)

        def text(length):
            third, fourth = rng.randrange(4), rng.randrange(4)
            return {16: f"10.{third}.0.0/16", 20: f"10.{third}.16.0/20",
                    24: f"10.{third}.{fourth}.0/24"}[length]

        table = VrpSet(
            VRP.parse(text(length) + "-24", rng.randrange(1, 4))
            for length in rng.choices((16, 20, 24), k=40)
        )
        overrides = (LocalOverrides().filter("10.1.0.0/16", 2).filter(asn=3)
                     .filter("10.2.0.0/16").pin("10.1.0.0/16-24", 2)
                     .pin("10.9.0.0/16", 1))
        routes = ["10.0.0.0/8", "10.9.0.0/24", "11.0.0.0/24"] + [
            f"10.{third}.{rest}" for third in range(4)
            for rest in ("0.0/16", "16.0/20", "0.0/24", "3.0/24", "16.0/24")]
        for prefix in routes:
            for origin in (1, 2, 3, 9):
                route = Route.parse(prefix, origin)
                assert classify_with_overrides(route, table, overrides) \
                    is classify(route, table, overrides), route


class TestSuspendersUnderChurn:
    """The fail-safe's documented cost: sloppy-but-benign deletions also
    linger, while proper retirements clear instantly."""

    def test_sloppy_retirement_lingers(self, world):
        from repro.monitor import ChurnConfig, ChurnEngine

        srp = SuspendersRelyingParty(make_rp(world), grace_seconds=6 * HOUR)
        srp.refresh()
        before_count = len(srp.vrps)
        churn = ChurnEngine(
            [world.continental],
            config=ChurnConfig(renew_rate=0, new_roa_rate=0,
                               retire_rate=1.0, sloppy_delete_prob=1.0),
            seed=5,
        )
        events = churn.tick()
        assert events and events[0].action == "sloppy-retire"
        world.clock.advance(HOUR)
        srp.refresh()
        # The sloppily retired ROA is retained: the effective set has not
        # shrunk (suspenders cannot tell benign sloppiness from attack).
        assert len(srp.vrps) == before_count
        assert len(srp.retained) == 1
        # After grace the retirement finally lands.
        world.clock.advance(7 * HOUR)
        srp.refresh()
        assert len(srp.vrps) == before_count - 1
        assert srp.retained == []

    def test_proper_retirement_lands_immediately(self, world):
        from repro.monitor import ChurnConfig, ChurnEngine

        srp = SuspendersRelyingParty(make_rp(world), grace_seconds=6 * HOUR)
        srp.refresh()
        before_count = len(srp.vrps)
        churn = ChurnEngine(
            [world.continental],
            config=ChurnConfig(renew_rate=0, new_roa_rate=0,
                               retire_rate=1.0, sloppy_delete_prob=0.0),
            seed=5,
        )
        events = churn.tick()
        assert events and events[0].action == "retire"
        world.clock.advance(HOUR)
        srp.refresh()
        assert len(srp.vrps) == before_count - 1
        assert srp.retained == []


class TestSuspendersReadsTheRun:
    """Corroboration comes from the CRL the validator judged each point
    against (``ValidationRun.crls``): Suspenders parses nothing and
    verifies nothing of its own."""

    def test_refresh_verifies_only_what_its_relying_party_does(
        self, world, monkeypatch
    ):
        srp = SuspendersRelyingParty(make_rp(world), grace_seconds=10 * HOUR)
        srp.refresh()
        world.continental.delete_object(world.target20_name)
        world.clock.advance(HOUR)
        srp.refresh()
        assert len(srp.retained) == 1

        verifies = []
        verify = RsaPublicKey.verify
        monkeypatch.setattr(RsaPublicKey, "verify", lambda key, *args: (
            verifies.append(key), verify(key, *args))[1])
        by_rp = []
        rp_refresh = srp.rp.refresh

        def counted_refresh():
            before = len(verifies)
            report = rp_refresh()
            by_rp.append(len(verifies) - before)
            return report

        monkeypatch.setattr(srp.rp, "refresh", counted_refresh)
        by_srp = []
        for change in (lambda: None,
                       lambda: world.continental.issue_roa(
                           64500, "63.174.24.0/24")):
            change()
            world.clock.advance(HOUR)
            before = len(verifies)
            srp.refresh()
            by_srp.append(len(verifies) - before)
            assert len(srp.retained) == 1
        assert by_srp == by_rp
        assert by_rp[1] > 0

    def test_revocation_honoured_across_a_switch_to_the_mirror(self, world):
        primary = world.continental.sia
        mirror_uri = TestMultiplePublicationPoints().add_mirror(world)
        faults = FaultInjector(seed=2)
        srp = SuspendersRelyingParty(make_rp(world, faults=faults),
                                     grace_seconds=10 * HOUR)
        assert not srp.refresh().run.has_issue("using-mirror")
        serial = world.target20.ee_cert.serial
        world.continental.revoke_roa(world.target20_name)
        # The primary copy goes inconsistent; the mirror is selected.
        faults.schedule(FaultKind.CORRUPT, primary,
                        file_name=world.target22_name)
        world.clock.advance(HOUR)
        run = srp.refresh().run
        assert run.has_issue("using-mirror")
        assert run.crls[primary] is run.crls[mirror_uri]
        assert run.crls[primary].is_revoked(serial)
        assert srp.retained == []
        assert srp.classify_parts("63.174.16.0/20", 17054) is not (
            RouteValidity.VALID
        )
