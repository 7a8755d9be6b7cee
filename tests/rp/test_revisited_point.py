"""A publication URI reached at two depths is fetched once and served once.

The paper's adversary misuses its *own* key: Sprint can validly sign a
child certificate, under a fresh key, whose SIA names ARIN's point — an
ancestor the refresh fetched and judged two levels earlier.  The walk
reaches that URI again one level below Sprint.  A refresh must neither
fetch it twice nor read it from the cache twice (the stale-serve counter
counts points, once per refresh), and its run must still be the walk of
the cache it leaves behind.
"""

from repro.crypto import KeyFactory
from repro.modelgen import build_figure2
from repro.repository import CacheFreshness, FaultInjector, FaultKind, Fetcher
from repro.rp import PathValidator, RelyingParty
from repro.simtime import HOUR, YEAR
from repro.telemetry import MetricsRegistry

from ..helpers import all_files
from ..rpki.forge import forge, publish_forged

ARIN = "rsync://arin.example/repo/"
LOOP_FILE = "loop.cer"


def plant_loop_child(world):
    """Sprint signs a fresh-key child whose SIA is ARIN's point."""
    template = world.continental.certificate.payload
    subject_key = KeyFactory(seed=667).next_keypair()
    payload = dict(
        template,
        serial=9_998,
        subject="loop",
        subject_key={"n": subject_key.public.modulus,
                     "e": subject_key.public.exponent},
        subject_key_id=subject_key.key_id,
        not_after=world.clock.now + YEAR,
        sia=ARIN,
        sia_mirrors=[],
    )
    publish_forged(world.sprint, {LOOP_FILE: forge(payload, world.sprint.key)})


def test_uri_reached_at_two_depths_is_fetched_and_served_once():
    world = build_figure2()
    plant_loop_child(world)
    metrics = MetricsRegistry()
    faults = FaultInjector()
    rp = RelyingParty(
        world.trust_anchors,
        Fetcher(world.registry, world.clock, faults=faults, metrics=metrics),
        metrics=metrics,
    )
    first = rp.refresh()
    # The child is accepted at Sprint's point, one level below it.
    assert "loop" in [cert.subject for cert in first.run.validated_cas]

    # ARIN's point goes dark: the refresh serves its stale copy.
    world.clock.advance(HOUR)
    faults.schedule(FaultKind.UNREACHABLE, ARIN)
    stale_serves = metrics.get("repro_cache_stale_serves_total")
    before = stale_serves.value()
    report = rp.refresh()
    served = stale_serves.value() - before

    uris = [result.uri for result in report.fetches]
    assert len(uris) == len(set(uris))
    assert not report.fetches[uris.index(ARIN)].ok
    assert report.freshness[ARIN] is CacheFreshness.STALE
    assert served == 1
    assert "loop" in [cert.subject for cert in report.run.validated_cas]
    now = world.clock.now
    oracle = PathValidator(world.trust_anchors, metrics=MetricsRegistry())
    assert report.run == oracle.run(all_files(rp.cache, now), now)
