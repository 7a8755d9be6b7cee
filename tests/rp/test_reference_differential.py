"""The shipped validator, pinned to the reference validator.

``reference_validator.py`` next to this file judges a snapshot by
recursive descent over the reference parse, sharing no judging code with
``repro.rp``.  Here ``PathValidator.run`` must say what it says — the
VRP set, the ROA evidence of every walked point and the multiset of
``(point, file, code)`` issues — both as a fresh validator and warm,
after replaying what an earlier snapshot left in its state, under
lenient and strict manifests:

- after a validly signed forgery of each kind a misbehaving authority
  (or whoever can write its repository) can publish;
- on the cache a relying party holds after each kind of fault;
- on a ``small`` deployment, cold and after churn.

``test_roa_rows.py`` holds its cold oracle to the reference too, at every
time boundary of a Figure 2 event mix.
"""

import pytest

from repro.crypto import KeyFactory
from repro.modelgen import build_deployment, build_figure2, resolve_scale
from repro.repository import FaultInjector, FaultKind, Fetcher, HostLocator
from repro.resources import ResourceSet
from repro.rp import PathValidator, RelyingParty
from repro.rpki import CRL_FILE
from repro.simtime import DAY, HOUR, YEAR
from repro.telemetry import MetricsRegistry

from ..helpers import all_files
from ..rpki.forge import (
    GHOSTBUSTERS_FILE,
    cert_bytes,
    crl_bytes,
    forge_contact,
    publish_contact,
    publish_forged,
    roa_bytes,
)
from ..rpki.reference_build import build_crl
from .reference_validator import assert_agrees
from .test_hostile_sia import SHAPES, plant_evil_child
from .test_roa_rows import publish_roa

FORGER = KeyFactory(seed=4242)


def snapshot_of(world) -> dict[str, dict[str, bytes]]:
    """Every point of every authority, delegated ones included."""
    points, authorities = {}, list(world.authorities())
    while authorities:
        ca = authorities.pop()
        points[ca.sia] = ca.publication_point.snapshot()
        authorities.extend(ca.children())
    return points


class Judged:
    """A world plus one long-lived validator per manifest policy."""

    def __init__(self, world):
        self.world = world
        self.warm = {
            strict: PathValidator(world.trust_anchors,
                                  strict_manifests=strict,
                                  metrics=MetricsRegistry())
            for strict in (False, True)
        }
        self.check()

    def check(self, snapshot=None) -> None:
        snapshot = snapshot if snapshot is not None else snapshot_of(
            self.world)
        now = self.world.clock.now
        for strict, validator in self.warm.items():
            fresh = PathValidator(self.world.trust_anchors,
                                  strict_manifests=strict,
                                  metrics=MetricsRegistry()).run(snapshot, now)
            assert_agrees(fresh, self.world.trust_anchors, snapshot, now,
                          strict_manifests=strict)
            assert validator.run(snapshot, now) == fresh


# -- forgeries -----------------------------------------------------------------

def overclaiming_ee(world):
    publish_roa(world, "wide.roa", ee_resources=ResourceSet.parse("63.0.0.0/8"))


def roa_beyond_its_ee(world):
    publish_forged(world.continental, {
        "beyond.roa": roa_bytes(world, prefixes=[[[1, 63 << 24, 8], 8]])})


def roa_of_another_issuer(world):
    name = sorted(world.sprint.issued_roas)[0]
    publish_forged(world.continental, {
        "borrowed.roa": world.sprint.publication_point.get(name)})


def certificate_of_another_issuer(world):
    publish_forged(world.continental, {"etb-copy.cer": cert_bytes(world)})


def bad_ee_signature(world):
    publish_roa(world, "stray.roa", ee_signer=world.sprint.key)


def bad_roa_signature(world):
    publish_roa(world, "forged.roa", roa_signer=world.continental.key)


def descending_crl_serials(world):
    publish_forged(world.continental, {CRL_FILE: crl_bytes(world, [9, 3])})


def crl_signed_by_a_stranger(world):
    """Whoever can delete a ROA can drop a "CRL" naming its EE beside it."""
    ca = world.continental
    publish_forged(ca, {CRL_FILE: build_crl(
        issuer_key=FORGER.next_keypair(), issuer_key_id=ca.key_id,
        revoked_serials={world.target20.ee_cert.serial}, serial=999,
        this_update=world.clock.now, next_update=world.clock.now + DAY,
    ).to_bytes()})


def crl_revoking_a_live_roa(world):
    publish_forged(world.continental, {
        CRL_FILE: crl_bytes(world, [world.target20.ee_cert.serial])})


def non_rsync_sia(world):
    plant_evil_child(world, **SHAPES["junk-sia"])


def non_rsync_mirror(world):
    plant_evil_child(world, **SHAPES["junk-mirror"])


def self_recertification(world):
    sprint = world.sprint
    sprint._issue_rc(
        subject="Sprint again", subject_public_key=sprint.key.public,
        ip_resources=sprint.resources, as_resources=None,
        sia=sprint.sia, validity=YEAR,
    )


def contact_record(world):
    publish_contact(world.etb, {"fn": "ETB NOC", "email": "noc@etb.example"},
                    validity=HOUR)


def revoked_contact_record(world):
    record = forge_contact(world.continental, {"fn": "Continental NOC"})
    publish_forged(world.continental, {
        GHOSTBUSTERS_FILE: record.to_bytes(),
        CRL_FILE: crl_bytes(world, [record.ee_cert.serial])})


def deep_delegation(world):
    server = world.registry.create_server(
        "deep.example", HostLocator.parse("63.174.20.10", 64800))
    ca = world.continental          # depth 2 below the trust anchor
    for depth in range(3, 35):      # ... down to depth 34
        sia = f"rsync://deep.example/repo/l{depth}/"
        ca = ca.issue_child_authority(
            f"Deep{depth}", ResourceSet.parse("63.174.18.0/23"),
            sia=sia, publication_point=server.mount(sia),
        )


FORGERIES = [
    overclaiming_ee, roa_beyond_its_ee, roa_of_another_issuer,
    certificate_of_another_issuer, bad_ee_signature, bad_roa_signature,
    descending_crl_serials, crl_signed_by_a_stranger,
    crl_revoking_a_live_roa, non_rsync_sia, non_rsync_mirror,
    self_recertification, contact_record, revoked_contact_record,
    deep_delegation,
]


@pytest.mark.parametrize("forgery", FORGERIES, ids=lambda f: f.__name__)
def test_forgery(forgery):
    judged = Judged(build_figure2())
    forgery(judged.world)
    judged.check()
    # A tick later, past the forged objects' one-day windows, and past
    # every window of the world.
    for step in (1, DAY, 90 * DAY):
        judged.world.clock.advance(step)
        judged.check()


# -- the cache a faulted relying party holds ------------------------------------

@pytest.mark.parametrize("kind", list(FaultKind), ids=lambda k: k.value)
def test_cache_after_fault(kind):
    world = build_figure2()
    faults = FaultInjector(seed=3)
    rp = RelyingParty(world.trust_anchors,
                      Fetcher(world.registry, world.clock, faults=faults,
                              attempt_timeout=60),
                      metrics=MetricsRegistry())
    judged = Judged(world)
    rp.refresh()
    # Something to replay, hide or swap: a new ROA and a renewed one.
    world.continental.issue_roa(64_500, "63.174.24.0/24")
    world.continental.renew_roa(world.target22_name)
    world.clock.advance(HOUR)
    file_kinds = (FaultKind.DROP, FaultKind.CORRUPT, FaultKind.TRUNCATE)
    faults.schedule(
        kind, world.continental.sia,
        file_name=world.target20_name if kind in file_kinds else None,
        delay_seconds=90 if kind is FaultKind.DELAY else 0,
    )
    rp.refresh()
    now = world.clock.now
    cached = all_files(rp.cache, now)
    judged.check(cached)
    assert_agrees(rp.validator.run(cached, now), world.trust_anchors,
                  cached, now)


# -- a generated deployment ----------------------------------------------------

def test_small_deployment_cold_and_after_churn():
    world = build_deployment(resolve_scale("small"))
    rp = RelyingParty(world.trust_anchors,
                      Fetcher(world.registry, world.clock),
                      metrics=MetricsRegistry())

    def agree():
        report = rp.refresh()
        now = world.clock.now
        cached = all_files(rp.cache, now)
        assert_agrees(report.run, world.trust_anchors, cached, now)
        assert report.run == PathValidator(
            world.trust_anchors, metrics=MetricsRegistry()).run(cached, now)

    agree()
    authorities = [ca for ca in world.authorities() if ca.issued_roas]
    names = [sorted(ca.issued_roas) for ca in authorities]
    authorities[0].revoke_roa(names[0][0])
    authorities[1].delete_object(names[1][0])
    authorities[2].renew_roa(names[2][0], validity=HOUR)
    parent = next(ca for ca in world.authorities() if any(ca.children()))
    parent.revoke_cert(list(parent.children())[-1].certificate)
    world.clock.advance(HOUR)
    agree()
    world.clock.advance(HOUR)   # the renewed ROA is past its window
    agree()
