"""A certificate whose SIA is not an rsync URI must not stop a refresh.

The paper's adversary misuses its *own* key: Sprint can validly sign a
child certificate whose ``sia`` (or one ``sia_mirrors`` entry) is junk.
Before the typed certificate reader judged those fields, the walk tried
to normalize them outside ``_judge_point``'s containment and
``UriError`` escaped ``RelyingParty.refresh()`` and
``PathValidator.run`` on every cycle for as long as the file stayed
published.  Now such a certificate is a ``parse-failed`` issue at its
issuer's point and nothing else changes.
"""

import pytest

from repro.crypto import KeyFactory
from repro.modelgen import build_figure2
from repro.repository import Fetcher
from repro.rp import PathValidator, RelyingParty, Severity
from repro.simtime import YEAR

from ..rpki.forge import forge, publish_forged

SPRINT = "rsync://sprint.example/repo/"
EVIL_FILE = "evil.cer"

SHAPES = {
    "junk-sia": dict(sia="http://evil.example/x", sia_mirrors=[]),
    "junk-mirror": dict(sia="rsync://evil.example/repo/",
                        sia_mirrors=["not-a-uri"]),
}


def plant_evil_child(world, *, sia, sia_mirrors):
    """Sprint signs a child certificate with a hostile SIA and lists it."""
    sprint = world.sprint
    template = world.continental.certificate.payload
    subject_key = KeyFactory(seed=666).next_keypair()
    payload = dict(
        template,
        serial=9_999,
        subject="evil",
        subject_key={"n": subject_key.public.modulus,
                     "e": subject_key.public.exponent},
        subject_key_id=subject_key.key_id,
        not_after=world.clock.now + YEAR,
        sia=sia,
        sia_mirrors=sia_mirrors,
    )
    publish_forged(sprint, {EVIL_FILE: forge(payload, sprint.key)})


def assert_contained(run, vrps):
    errors = run.errors()
    assert [(i.point_uri, i.file_name, i.code) for i in errors] == [
        (SPRINT, EVIL_FILE, "parse-failed")
    ]
    assert errors[0].severity is Severity.ERROR
    assert "rsync" in errors[0].message
    # Sprint's other children and every ROA of the world still validate.
    assert len(run.validated_cas) == 4
    assert len(vrps) == 8


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_refresh_completes_and_records_the_certificate(shape):
    world = build_figure2()
    plant_evil_child(world, **SHAPES[shape])
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock),
    )
    for cold in (True, False, True):  # it used to raise on every cycle
        if cold:
            rp.incremental_state.clear()
        report = rp.refresh()
        assert_contained(report.run, rp.vrps)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_validator_run_completes_and_records_the_certificate(shape):
    world = build_figure2()
    plant_evil_child(world, **SHAPES[shape])
    snapshot = {
        ca.sia: {
            name: ca.publication_point.get(name)
            for name in ca.publication_point.names()
        }
        for ca in world.authorities()
    }
    run = PathValidator(world.trust_anchors).run(snapshot, world.clock.now)
    assert_contained(run, run.vrps)
