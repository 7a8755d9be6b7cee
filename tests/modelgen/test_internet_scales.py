"""Tests for the flat Internet-scale deployment family.

The flat generator (``DeploymentConfig(flat=True)``) mints many sibling
publication points directly under each RIR — no customer subtree, no
suballocation recursion — which is what lets
:data:`repro.modelgen.INTERNET_SCALES` reach 10⁴–10⁵ ROAs in O(n).
These tests pin the family's arithmetic, its determinism (same seed ⇒
identical world), and the equivalence claim at ``internet-small``: a
relying party's cold refresh, its warm re-refresh and a new validator's
``PathValidator.run`` produce identical walks.
"""

import gc
import hashlib

import pytest

from repro.jurisdiction.regions import RIR
from repro.modelgen import (
    HIERARCHICAL_SCALES,
    INTERNET_SCALES,
    DeploymentConfig,
    build_deployment,
    build_figure2,
    resolve_scale,
)
from repro.repository import Fetcher
from repro.rp import PathValidator, RelyingParty
from repro.rpki import Roa

from ..helpers import all_files, clear_key_cache
from ..rp.test_roa_evidence import check_evidence

# Small enough to build in ~a second, flat like the Internet scales.
TINY_FLAT = DeploymentConfig(
    isps_per_rir=6, customers_per_isp=0, roas_per_isp=8,
    roas_per_customer=0, flat=True, seed=33,
)


def published_digest(*worlds) -> str:
    """SHA-256 over every file every authority of *worlds* published:
    URI, name, length and bytes, in URI and name order."""
    digest = hashlib.sha256()
    for world in worlds:
        for server in sorted(world.registry.servers(), key=lambda s: s.host):
            for point in sorted(server.points(), key=lambda p: str(p.uri)):
                for name in sorted(point.names()):
                    data = point.get(name)
                    digest.update(f"{point.uri}{name}\0{len(data)}\0".encode())
                    digest.update(data)
    return digest.hexdigest()


def _refresh(world):
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock),
    )
    return rp, rp.refresh()


class TestFlatGenerator:
    @pytest.fixture(scope="class")
    def world(self):
        return build_deployment(TINY_FLAT)

    def test_published_bytes_are_pinned(self, world):
        # Every certificate, ROA, CRL and manifest a builder writes, byte
        # for byte, as the dict-and-encode builders wrote them.
        assert published_digest(build_figure2(), world) == (
            "f6cd3eb305262f5ecac228963b5e274ec2e9487975e76521c1045a7a1d63864f")

    def test_census(self, world):
        rirs = len(TINY_FLAT.rirs)
        assert world.roa_count() == rirs * 6 * 8
        # One trust anchor plus isps_per_rir ISPs per RIR, nothing deeper.
        assert len(world.authorities()) == rirs * (1 + 6)
        for root, _rir in world.roots:
            assert all(
                not list(child.children()) for child in root.children()
            )

    def test_keypair_consumption_matches_prediction(self, world):
        # Shared EE keys: 1 TA + (1 CA + 1 EE) per ISP, per RIR — keygen
        # is O(authorities), not O(ROAs).
        assert world.key_factory.issued == len(TINY_FLAT.rirs) * (1 + 6 * 2)

    def test_shared_ee_keys_one_per_authority(self, world):
        seen = set()
        for root, _rir in world.roots:
            for isp in root.children():
                ee_keys = {
                    roa.ee_cert.subject_key_id
                    for roa in isp.issued_roas.values()
                }
                assert len(ee_keys) == 1       # shared within the authority
                seen |= ee_keys
        # ...but never across authorities (each draws its own keypair).
        assert len(seen) == len(TINY_FLAT.rirs) * 6

    def test_refresh_clean(self, world):
        rp, report = _refresh(world)
        assert report.run.errors() == []
        assert len(rp.vrps) == world.roa_count()

    def test_every_isp_asn_has_jurisdiction(self, world):
        isp_count = len(TINY_FLAT.rirs) * 6
        assert len(world.as_country) == isp_count
        assert all(country for country in world.as_country.values())


class TestConfigValidation:
    def test_flat_bounds_roas_per_isp(self):
        with pytest.raises(ValueError):
            DeploymentConfig(flat=True, roas_per_isp=257)

    def test_flat_bounds_isps_per_rir(self):
        with pytest.raises(ValueError):
            DeploymentConfig(flat=True, isps_per_rir=255)


class TestInternetScalesRegistry:
    EXPECTED_ROAS = {
        "internet-small": 10_000,
        "internet": 30_000,
        "internet-large": 100_000,
    }

    def test_family_shape(self):
        assert set(INTERNET_SCALES) == set(self.EXPECTED_ROAS)
        for config in INTERNET_SCALES.values():
            assert config.flat
            assert config.customers_per_isp == 0

    @pytest.mark.parametrize("name", sorted(EXPECTED_ROAS))
    def test_roa_arithmetic(self, name):
        config = INTERNET_SCALES[name]
        roas = len(config.rirs) * config.isps_per_rir * config.roas_per_isp
        assert roas == self.EXPECTED_ROAS[name]

    def test_unknown_scale_names_every_valid_one(self):
        with pytest.raises(KeyError) as exc:
            resolve_scale("galactic")
        for name in (*INTERNET_SCALES, *HIERARCHICAL_SCALES):
            assert repr(name) in str(exc.value)
        assert resolve_scale("small", 9).seed == 9
        assert resolve_scale("internet") is INTERNET_SCALES["internet"]


class TestDeterminism:
    def test_same_seed_builds_identical_worlds(self):
        first = build_deployment(TINY_FLAT)
        second = build_deployment(TINY_FLAT)
        assert first.roa_count() == second.roa_count()
        assert (
            [(ca.handle, ca.key_id) for ca in first.authorities()]
            == [(ca.handle, ca.key_id) for ca in second.authorities()]
        )
        assert first.as_country == second.as_country
        rp_a, _ = _refresh(first)
        rp_b, _ = _refresh(second)
        assert rp_a.vrps.content_hash() == rp_b.vrps.content_hash()

    def test_rebuild_with_cold_keys_is_byte_identical(self):
        # Keys regenerated from their per-index streams, not replayed from
        # the process-wide cache: same certificates, byte for byte.
        config = DeploymentConfig(
            rirs=(RIR.APNIC,), isps_per_rir=2, customers_per_isp=1,
            suballocation_depth=1, seed=61,
        )
        clear_key_cache()
        try:
            first = build_deployment(config)
            clear_key_cache()
            second = build_deployment(config)
        finally:
            clear_key_cache()
        assert (
            [ca.certificate.hash_hex for ca in first.authorities()]
            == [ca.certificate.hash_hex for ca in second.authorities()]
        )
        assert first.as_country == second.as_country

    def test_different_seed_differs(self):
        from dataclasses import replace

        first = build_deployment(TINY_FLAT)
        second = build_deployment(replace(TINY_FLAT, seed=34))
        assert (
            first.authorities()[0].key_id != second.authorities()[0].key_id
        )


class TestInternetSmallEquivalence:
    """The heavyweight pin: cold, warm and a new validator agree at 10^4
    ROAs."""

    @pytest.fixture(scope="class")
    def world(self):
        return build_deployment(INTERNET_SCALES["internet-small"])

    def test_modes_and_cold_oracle_agree(self, world):
        def signature(run):
            return (
                run.vrps.content_hash(),
                list(run.issues),
                [cert.hash_hex for cert in run.validated_cas],
                run.roas,
            )

        rp, cold_report = _refresh(world)
        cold = signature(cold_report.run)       # before the index moves on
        warm_report = rp.refresh()              # replayed from kept state
        now = world.clock.now
        oracle = PathValidator(world.trust_anchors).run(
            all_files(rp.cache, now), now
        )

        assert cold_report.run.issues == []
        assert len(rp.vrps) == world.roa_count()
        assert cold == signature(oracle)
        assert signature(warm_report.run) == signature(oracle)
        assert cold_report.run == oracle == warm_report.run
        # Every evidence row against a fresh parse of the bytes it names.
        assert (
            check_evidence(rp, cold_report.run)
            == cold_report.run.roa_count
            == world.roa_count()
        )

    def test_refresh_keeps_no_parsed_roas(self, world):
        def live_roas():
            gc.collect()
            return sum(1 for obj in gc.get_objects() if type(obj) is Roa)

        before = live_roas()
        rp, report = _refresh(world)
        assert live_roas() <= before
        assert report.run.roa_count == world.roa_count()
        assert len(rp.vrps) == world.roa_count()
