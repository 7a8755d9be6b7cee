"""Tests for the Figure 2 fixture and the synthetic deployment generator."""

import pytest

from repro.modelgen import (
    DeploymentConfig,
    build_deployment,
    build_figure2,
    build_table4_world,
    figure2_bgp,
)
from repro.modelgen import deployment
from repro.repository import Fetcher
from repro.resources import Prefix, ResourceSet
from repro.rp import RelyingParty


class TestFigure2:
    @pytest.fixture(scope="class")
    def world(self):
        return build_figure2()

    def test_hierarchy(self, world):
        assert world.sprint.parent is world.arin
        assert world.continental.parent is world.sprint
        assert world.etb.parent is world.sprint
        assert world.sprint.resources == ResourceSet.parse("63.160.0.0/12")
        assert world.continental.resources == ResourceSet.parse("63.174.16.0/20")

    def test_roa_census(self, world):
        assert len(world.sprint.issued_roas) == 2
        assert len(world.etb.issued_roas) == 1
        assert len(world.continental.issued_roas) == 5

    def test_targets(self, world):
        assert world.target20.describe() == "(63.174.16.0/20, AS17054)"
        assert world.target22.describe() == "(63.174.16.0/22, AS7341)"

    def test_figure3_hole_is_clean(self, world):
        """63.174.24.0/24 must overlap nothing but the /20 target, as the
        paper's Figure 3 walkthrough requires."""
        hole = Prefix.parse("63.174.24.0/24")
        overlapping = [
            roa.describe()
            for roa in world.continental.issued_roas.values()
            if any(rp.prefix.overlaps(hole) for rp in roa.prefixes)
        ]
        assert overlapping == ["(63.174.16.0/20, AS17054)"]

    def test_slash12_has_no_covering_roa(self, world):
        from repro.core import validity_matrix
        from repro.rp import RouteValidity, VrpSet, VRP

        vrps = VrpSet(
            VRP(rp.prefix, rp.effective_max_length, roa.asn)
            for ca in world.authorities()
            for roa in ca.issued_roas.values()
            for rp in roa.prefixes
        )
        matrix = validity_matrix(vrps, "63.160.0.0/12", lengths=[12],
                                 origins=[1239])
        assert matrix.state("63.160.0.0/12", 1239) is RouteValidity.UNKNOWN

    def test_continental_repo_inside_own_prefix(self, world):
        server = world.registry.by_host("continental.example")
        assert Prefix.parse("63.174.16.0/20").covers(
            server.locator.host_prefix
        )
        assert int(server.locator.origin_asn) == 17054

    def test_reproducible(self):
        a = build_figure2()
        b = build_figure2()
        assert a.arin.key_id == b.arin.key_id
        assert a.target20.hash_hex == b.target20.hash_hex

    def test_bgp_side_consistent(self, world):
        graph, originations, rp_asn = figure2_bgp()
        assert rp_asn in graph
        # Every repository server's address is covered by some origination.
        for server in world.registry.servers():
            covered = any(
                o.prefix.covers(server.locator.host_prefix)
                for o in originations
            )
            assert covered, f"no route covers {server.host}"


class TestDeployment:
    @pytest.fixture(scope="class")
    def world(self):
        return build_deployment(DeploymentConfig(
            isps_per_rir=3, customers_per_isp=2, seed=1
        ))

    def test_census(self, world):
        # 5 RIRs x (1 root + 3 ISPs + 3*2 customers) authorities.
        assert len(world.authorities()) == 5 * (1 + 3 + 6)
        # ROAs: per RIR, 3 ISPs x 2 + 6 customers x 1 = 12; x5 = 60.
        assert world.roa_count() == 60

    def test_every_as_has_a_country(self, world):
        from repro.core import subtree_roas

        for root, _rir in world.roots:
            for _h, _n, roa in subtree_roas(root):
                assert roa.asn in world.as_country

    def test_full_validation_clean(self, world):
        rp = RelyingParty(
            world.trust_anchors,
            Fetcher(world.registry, world.clock),
        )
        report = rp.refresh()
        assert report.run.errors() == []
        assert len(rp.vrps) == 60

    def test_reproducible(self):
        config = DeploymentConfig(isps_per_rir=2, customers_per_isp=1, seed=9)
        a = build_deployment(config)
        b = build_deployment(config)
        assert a.as_country == b.as_country
        assert a.roa_count() == b.roa_count()

    def test_scaling(self):
        small = build_deployment(DeploymentConfig(isps_per_rir=1,
                                                  customers_per_isp=1))
        big = build_deployment(DeploymentConfig(isps_per_rir=4,
                                                customers_per_isp=2))
        assert big.roa_count() > small.roa_count()

    def test_cross_border_rate_zero(self, monkeypatch):
        monkeypatch.setattr(deployment, "CROSS_BORDER_RATE", 0.0)
        world = build_deployment(DeploymentConfig(
            isps_per_rir=2, customers_per_isp=1
        ))
        from repro.jurisdiction import cross_border_audit

        findings = cross_border_audit(world.roots, world.as_country)
        assert not any(f.crosses_border for f in findings)

    def test_cross_border_rate_high(self, monkeypatch):
        monkeypatch.setattr(deployment, "CROSS_BORDER_RATE", 1.0)
        world = build_deployment(DeploymentConfig(
            isps_per_rir=2, customers_per_isp=1
        ))
        from repro.jurisdiction import cross_border_audit

        findings = cross_border_audit(world.roots, world.as_country)
        assert any(f.crosses_border for f in findings)


class TestTable4World:
    def test_builds_and_validates(self):
        world = build_table4_world()
        rp = RelyingParty(
            world.trust_anchors,
            Fetcher(world.registry, world.clock),
        )
        report = rp.refresh()
        assert report.run.errors() == []
        # 9 holders x (countries + 1 home ROA).
        from repro.jurisdiction import TABLE4_ROWS

        expected = sum(len(r.countries) + 1 for r in TABLE4_ROWS)
        assert len(rp.vrps) == expected


class TestAmplifier:
    """The Stalloris attacker's delegation tree, minted by the generator."""

    CONFIG = DeploymentConfig(
        seed=1, isps_per_rir=2, customers_per_isp=1, amplification_points=6,
    )

    @pytest.fixture(scope="class")
    def world(self):
        return build_deployment(self.CONFIG)

    def test_amplifier_shape(self, world):
        assert world.amplifier_host and world.amplifier_host.endswith("-amp.example")
        assert len(world.amplifier_points) == 6
        # Every child point lives under the amplifier's own repo prefix,
        # so one URI-prefix fault covers the whole subtree.
        for uri in world.amplifier_points:
            assert uri.startswith(f"rsync://{world.amplifier_host}/repo/amp")

    def test_children_publish_and_validate(self, world):
        rp = RelyingParty(
            world.trust_anchors,
            Fetcher(world.registry, world.clock),
        )
        rp.refresh()
        amp_asns = {65000 + i for i in range(6)}
        validated = {int(v.asn) for v in rp.vrps}
        assert amp_asns <= validated

    def test_zero_points_world_is_byte_identical(self):
        baseline = DeploymentConfig(seed=1, isps_per_rir=2, customers_per_isp=1)
        with_knob = DeploymentConfig(
            seed=1, isps_per_rir=2, customers_per_isp=1, amplification_points=0,
        )
        one, two = build_deployment(baseline), build_deployment(with_knob)
        assert one.as_country == two.as_country
        assert [ca.handle for ca in one.authorities()] == \
            [ca.handle for ca in two.authorities()]
        assert two.amplifier_host is None and two.amplifier_points == []

    def test_amplifier_does_not_disturb_the_main_hierarchy(self, world):
        # The amplifier draws nothing from the jurisdiction RNG: every
        # pre-existing authority is identical with and without it.
        plain = build_deployment(
            DeploymentConfig(seed=1, isps_per_rir=2, customers_per_isp=1)
        )
        amp_handles = {ca.handle for ca in world.authorities()} \
            - {ca.handle for ca in plain.authorities()}
        assert all("amp" in handle for handle in amp_handles)
        assert world.as_country.items() >= plain.as_country.items()

    def test_validation(self):
        with pytest.raises(ValueError):
            DeploymentConfig(amplification_points=-1)
        with pytest.raises(ValueError):
            DeploymentConfig(amplification_points=251)
        with pytest.raises(ValueError):
            DeploymentConfig(amplification_points=1, isps_per_rir=191)
