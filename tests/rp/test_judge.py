"""The judge is one function, held to the walk.

``PathValidator.judge(ca_cert, files, digests, now)`` turns one
publication point's served bytes into a ``PointResult`` and never
raises.  A fresh validator's verdict on every point a relying party's
walk reached equals, field for field, the result the walk kept in its
last levels — including a point a misbehaving authority filled with
forged bytes.
"""

import dataclasses

from repro.modelgen import build_figure2
from repro.repository import Fetcher
from repro.rp import PathValidator, PointResult, RelyingParty
from repro.rpki import CRL_FILE
from repro.telemetry import MetricsRegistry

from ..rpki.forge import crl_bytes, publish_forged, roa_bytes


def test_a_fresh_judge_equals_every_result_the_walk_kept():
    world = build_figure2()
    # Continental publishes a ROA naming a prefix outside its EE
    # certificate and a CRL whose serials are out of order.
    publish_forged(world.continental, {
        "beyond.roa": roa_bytes(world, prefixes=[[[1, 63 << 24, 8], 8]]),
        CRL_FILE: crl_bytes(world, [9, 3]),
    })
    metrics = MetricsRegistry()
    rp = RelyingParty(world.trust_anchors,
                      Fetcher(world.registry, world.clock, metrics=metrics),
                      metrics=metrics)
    rp.refresh()
    state, now = rp.incremental_state, world.clock.now
    judged = {}
    for level in state.levels:
        for key_id, ca_cert in level.certs.items():
            fresh = PathValidator(world.trust_anchors,
                                  metrics=MetricsRegistry())
            result = fresh.judge(ca_cert, state.files, state.digests, now)
            assert isinstance(result, PointResult)
            kept = level.results[key_id]
            for name in (f.name for f in dataclasses.fields(PointResult)):
                assert getattr(result, name) == getattr(kept, name), name
            judged[ca_cert.sia] = result
    assert len(judged) == 4
    forged = judged[world.continental.sia]
    codes = {(issue.file_name, issue.code) for issue in forged.issues}
    assert {("beyond.roa", "roa-overclaim"),
            (CRL_FILE, "crl-parse-failed")} <= codes
