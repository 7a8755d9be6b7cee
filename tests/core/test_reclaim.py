"""Tests for Side Effect 1: unilateral reclamation and the recourse set."""

import pytest

from repro.core import ScenarioError, reclaim_space, reissuance_candidates
from repro.modelgen import build_figure2
from repro.repository import Fetcher
from repro.resources import Prefix, ResourceSet
from repro.rp import RelyingParty


@pytest.fixture
def world():
    return build_figure2()


class TestReclamation:
    def test_landlord_evicts_tenant(self, world):
        report = reclaim_space(
            world.sprint, world.continental, roots=[world.arin]
        )
        assert report.reclaimed == ResourceSet.parse("63.174.16.0/20")
        assert len(report.whacked_roas) == 5
        # The RPKI now reflects the eviction.
        rp = RelyingParty(
            world.trust_anchors, Fetcher(world.registry, world.clock)
        )
        rp.refresh()
        assert len(rp.vrps) == 3

    def test_recourse_is_only_the_ancestor_chain(self, world):
        report = reclaim_space(
            world.sprint, world.continental, roots=[world.arin]
        )
        # Only ARIN and Sprint hold supersets of the reclaimed /20 —
        # "its space may only be reissued by authorities holding supersets
        # of the reclaimed space."
        assert report.recourse == ["ARIN", "Sprint"]

    def test_indirect_descendant_rejected(self, world):
        with pytest.raises(ScenarioError):
            reclaim_space(world.arin, world.continental, roots=[world.arin])

    def test_describe(self, world):
        report = reclaim_space(
            world.sprint, world.continental, roots=[world.arin]
        )
        text = report.describe()
        assert "Sprint reclaimed" in text
        assert "ROAs whacked : 5" in text
        assert "ARIN" in text


class TestReissuanceCandidates:
    def test_candidates_cover_the_space(self, world):
        candidates = reissuance_candidates(
            [world.arin], Prefix.parse("63.174.16.0/22")
        )
        handles = [c.handle for c in candidates]
        assert handles == ["ARIN", "Sprint", "Continental Broadband"]

    def test_unheld_space_has_no_candidates(self, world):
        candidates = reissuance_candidates(
            [world.arin], Prefix.parse("8.0.0.0/8")
        )
        assert candidates == []

    def test_sibling_cannot_reissue(self, world):
        # ETB holds 63.168/16; it can never reissue Continental's space —
        # the contrast with the web PKI, where any CA could.
        candidates = reissuance_candidates(
            [world.arin], Prefix.parse("63.174.16.0/20")
        )
        assert world.etb not in candidates
