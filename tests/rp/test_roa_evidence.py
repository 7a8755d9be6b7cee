"""What a validated ROA leaves behind: :class:`repro.rp.RoaEvidence`.

A walk drops every parsed ROA as soon as its point is judged and keeps
``(file name, EE serial, not_after, VRPs)`` on ``ValidationRun.roas``.
The pin is differential: re-parse the cached bytes the evidence points
at and require the same facts; and the field takes part in run equality,
so the cold oracle, a stateless refresh and a replayed one must agree on
it.
"""

import pytest

from repro.core import execute_whack, plan_whack
from repro.modelgen import build_figure2
from repro.repository import Fetcher
from repro.rp import ENGINE_MODES, VRP, PathValidator, RelyingParty
from repro.rpki import Roa
from repro.rpki.parse import parse_object
from repro.simtime import HOUR


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


@pytest.mark.parametrize("mode", ENGINE_MODES)
def test_evidence_matches_cached_bytes(world, mode):
    rp = make_rp(world, mode=mode)
    run = rp.refresh().run
    assert check_evidence(rp, run) == run.roa_count == 8
    asserted = [v for _, rows in run.roas for row in rows for v in row.vrps]
    assert sorted(asserted) == list(run.vrps)


def test_cold_oracle_serial_and_incremental_agree(world):
    serial, kept = make_rp(world), make_rp(world, mode="incremental")
    serial.refresh()
    kept.refresh()
    execute_whack(plan_whack(world.sprint, world.target20, world.continental))
    world.clock.advance(HOUR)
    now = world.clock.now
    serial_run, kept_run = serial.refresh().run, kept.refresh().run
    oracle = PathValidator(world.trust_anchors).run(
        serial.cache.all_files(now), now
    )
    assert oracle.roas == serial_run.roas == kept_run.roas
    assert oracle == serial_run == kept_run
    assert check_evidence(kept, kept_run) == kept_run.roa_count


def test_roas_take_part_in_run_equality(world):
    # An incremental relying party's runs all share one live ``vrps``
    # index; after a ROA disappears they differ only here.
    rp = make_rp(world, mode="incremental")
    before = rp.refresh().run
    world.continental.delete_object(world.target20_name)
    world.clock.advance(HOUR)
    after = rp.refresh().run
    assert after.vrps is before.vrps
    assert after.roa_count == before.roa_count - 1
    assert after != before
