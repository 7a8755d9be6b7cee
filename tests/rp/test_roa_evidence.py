"""What a validated ROA leaves behind: its :class:`RoaRow`.

A walk drops every parsed ROA as soon as its point is judged and keeps
``(file name, RoaRow)`` per accepted ROA on ``ValidationRun.roas`` — the
row the validator judged, not a copy.  The pin is differential: re-parse
the cached bytes each row names and require every field; and the field
takes part in run equality, so a new validator, a cleared refresh and a
replayed one must agree on it, and with the reference validator.
"""

import pytest

from repro.core import execute_whack, plan_whack
from repro.modelgen import build_figure2
from repro.repository import Fetcher
from repro.rp import VRP, PathValidator, RelyingParty
from repro.rp.incremental import RoaRow
from repro.rpki import Roa
from repro.rpki.parse import parse_object
from repro.simtime import HOUR

from ..helpers import all_files
from .reference_validator import assert_agrees


def check_evidence(rp, run) -> int:
    """Every accepted ROA's row against a fresh parse of the bytes it names.

    Returns how many ROAs were checked.
    """
    checked = 0
    for point, rows in run.roas:
        files = rp.cache.point(point).files
        for file_name, row in rows:
            roa = parse_object(files[file_name])
            assert isinstance(roa, Roa)
            ee = roa.ee_cert
            assert row == RoaRow(
                vrps=tuple(VRP(p.prefix, p.effective_max_length, roa.asn)
                           for p in roa.prefixes),
                ee_serial=ee.serial,
                ee_not_before=ee.not_before,
                ee_not_after=ee.not_after,
                not_before=roa.not_before,
                not_after=roa.not_after,
                failure=None,
                early=False,
            )
            checked += 1
    return checked


@pytest.fixture
def world():
    return build_figure2()


def make_rp(world, **kwargs):
    fetcher = Fetcher(world.registry, world.clock)
    return RelyingParty(world.trust_anchors, fetcher, **kwargs)


def test_evidence_matches_cached_bytes(world):
    rp = make_rp(world)
    run = rp.refresh().run
    assert check_evidence(rp, run) == run.roa_count == 8
    asserted = [v for _, rows in run.roas for _, row in rows for v in row.vrps]
    assert sorted(asserted) == list(run.vrps)


def test_the_run_holds_the_judged_row_itself(world):
    rp = make_rp(world)
    run = rp.refresh().run
    kept = {id(row) for row in rp.incremental_state.roa_rows._current.values()}
    rows = [row for _, pairs in run.roas for _, row in pairs]
    assert rows and all(id(row) in kept for row in rows)


def test_cold_oracle_serial_and_incremental_agree(world):
    cleared, kept = make_rp(world), make_rp(world)
    cleared.refresh()
    kept.refresh()
    execute_whack(plan_whack(world.sprint, world.target20, world.continental))
    world.clock.advance(HOUR)
    now = world.clock.now
    cleared.incremental_state.clear()
    cleared_run, kept_run = cleared.refresh().run, kept.refresh().run
    files = all_files(cleared.cache, now)
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


def test_roa_evidence_is_gone():
    with pytest.raises(ImportError):
        from repro import RoaEvidence  # noqa: F401
    with pytest.raises(ImportError):
        from repro.rp import RoaEvidence  # noqa: F401, F811
    with pytest.raises(ImportError):
        from repro.rp.incremental import RoaEvidence  # noqa: F401, F811
