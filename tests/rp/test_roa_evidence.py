"""What a validated ROA leaves behind: :class:`repro.rp.RoaEvidence`.

A walk drops every parsed ROA as soon as its point is judged and keeps
``(file name, EE serial, not_after, VRPs)`` on ``ValidationRun.roas``.
The pin is differential: re-parse the cached bytes the evidence points
at and require the same facts; and the field takes part in run equality,
so a new validator, a cleared refresh and a replayed one must agree on
it, and with the reference validator.
"""

import pytest

from repro.core import execute_whack, plan_whack
from repro.modelgen import build_figure2
from repro.repository import Fetcher
from repro.rp import VRP, PathValidator, RelyingParty
from repro.rpki import Roa
from repro.rpki.parse import parse_object
from repro.simtime import HOUR

from .reference_validator import assert_agrees


def check_evidence(rp, run) -> int:
    """Every evidence row against a fresh parse of the bytes it names.

    Returns how many ROAs were checked.
    """
    checked = 0
    for point, evidence in run.roas:
        files = rp.cache.point(point).files
        for row in evidence:
            roa = parse_object(files[row.file_name])
            assert isinstance(roa, Roa)
            assert row.ee_serial == roa.ee_cert.serial
            assert row.not_after == roa.not_after
            assert row.vrps == tuple(
                VRP(p.prefix, p.effective_max_length, roa.asn)
                for p in roa.prefixes
            )
            checked += 1
    return checked


@pytest.fixture
def world():
    return build_figure2()


def make_rp(world, **kwargs):
    fetcher = Fetcher(world.registry, world.clock)
    return RelyingParty(world.trust_anchors, fetcher, world.clock, **kwargs)


def test_evidence_matches_cached_bytes(world):
    rp = make_rp(world)
    run = rp.refresh().run
    assert check_evidence(rp, run) == run.roa_count == 8
    asserted = [v for _, rows in run.roas for row in rows for v in row.vrps]
    assert sorted(asserted) == list(run.vrps)


def test_cold_oracle_serial_and_incremental_agree(world):
    cleared, kept = make_rp(world), make_rp(world)
    cleared.refresh()
    kept.refresh()
    execute_whack(plan_whack(world.sprint, world.target20, world.continental))
    world.clock.advance(HOUR)
    now = world.clock.now
    cleared.incremental_state.clear()
    cleared_run, kept_run = cleared.refresh().run, kept.refresh().run
    files = cleared.cache.all_files(now)
    oracle = PathValidator(world.trust_anchors).run(files, now)
    assert oracle.roas == cleared_run.roas == kept_run.roas
    assert oracle == cleared_run == kept_run
    assert_agrees(oracle, world.trust_anchors, files, now)
    assert check_evidence(kept, kept_run) == kept_run.roa_count


def test_roas_take_part_in_run_equality(world):
    # A relying party's runs all share one live ``vrps`` index; after a
    # ROA disappears they differ only here.
    rp = make_rp(world)
    before = rp.refresh().run
    world.continental.delete_object(world.target20_name)
    world.clock.advance(HOUR)
    after = rp.refresh().run
    assert after.vrps is before.vrps
    assert after.roa_count == before.roa_count - 1
    assert after != before
