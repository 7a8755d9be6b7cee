"""Tests for RIR regions and the Table 4 cross-border audit."""

import pytest

from repro.jurisdiction import (
    RIR,
    TABLE4_ROWS,
    cross_border_audit,
    in_jurisdiction,
    region_of,
    render_table4,
)
from repro.modelgen import build_table4_world


class TestRegions:
    def test_five_rirs(self):
        assert len(RIR) == 5

    def test_regions_disjoint(self):
        seen = {}
        for rir in RIR:
            for country in region_of(rir):
                assert country not in seen, (
                    f"{country} in both {seen.get(country)} and {rir}"
                )
                seen[country] = rir

    def test_in_jurisdiction(self):
        assert in_jurisdiction(RIR.ARIN, "US")
        assert in_jurisdiction(RIR.ARIN, "us")  # case-insensitive
        assert not in_jurisdiction(RIR.ARIN, "FR")
        assert in_jurisdiction(RIR.RIPE, "FR")
        assert not in_jurisdiction(RIR.RIPE, "XX")  # unknown = outside

    def test_rir_of_country(self):
        def rirs_of(country):
            return [rir for rir in RIR if in_jurisdiction(rir, country)]

        assert rirs_of("CO") == [RIR.LACNIC]
        assert rirs_of("ZW") == [RIR.AFRINIC]
        assert rirs_of("XX") == []

    def test_table4_countries_all_mapped(self):
        # Every country code the paper's table uses must resolve to a
        # region (otherwise the audit could not have flagged it).
        for row in TABLE4_ROWS:
            for country in row.countries:
                assert any(in_jurisdiction(rir, country) for rir in RIR), country


class TestTable4Fixture:
    def test_nine_rows(self):
        assert len(TABLE4_ROWS) == 9

    def test_rows_are_genuinely_cross_border(self):
        for row in TABLE4_ROWS:
            for country in row.countries:
                assert not in_jurisdiction(row.parent_rir, country), (
                    f"{row.holder}: {country} is inside {row.parent_rir}"
                )

    def test_sprint_appears_twice(self):
        sprints = [r for r in TABLE4_ROWS if r.holder == "Sprint"]
        assert {r.rc_prefix for r in sprints} == {
            "208.0.0.0/11", "63.160.0.0/12"
        }


class TestAudit:
    @pytest.fixture(scope="class")
    def world(self):
        return build_table4_world()

    @pytest.fixture(scope="class")
    def findings(self, world):
        return cross_border_audit(world.roots, world.as_country)

    def test_every_paper_row_reproduced(self, findings):
        by_holder = {
            f.holder: f for f in findings if f.crosses_border
        }
        for row in TABLE4_ROWS:
            key = f"{row.holder}-{row.rc_prefix}"
            assert key in by_holder, f"missing finding for {key}"
            assert set(by_holder[key].outside_countries) == set(row.countries)

    def test_no_spurious_cross_border_findings(self, findings):
        crossing = [f for f in findings if f.crosses_border]
        assert len(crossing) == len(TABLE4_ROWS)

    def test_in_region_customer_not_flagged(self, findings):
        # Each holder also has one in-region ROA; it must appear in
        # all_countries but never in outside_countries.
        for finding in findings:
            if finding.crosses_border:
                assert len(finding.all_countries) == (
                    len(finding.outside_countries) + 1
                )

    def test_render_matches_paper_shape(self, findings):
        text = render_table4(findings)
        lines = text.splitlines()
        assert lines[0].startswith("Holder")
        assert len(lines) == 10  # header + 9 rows
        assert any("Resilans" in line and "IN,US" in line for line in lines)

    def test_rirs_can_whack_foreign_roas(self, world, findings):
        """The paper's point: ARIN, accountable only to its region, holds
        revocation power over Colombian/European/Asian ROAs."""
        arin = next(root for root, rir in world.roots if rir is RIR.ARIN)
        from repro.core import subtree_roas

        foreign = [
            roa for _h, _n, roa in subtree_roas(arin)
            if not in_jurisdiction(
                RIR.ARIN, world.as_country.get(roa.asn, "US")
            )
        ]
        assert len(foreign) >= 30  # dozens of out-of-region ROAs under ARIN
