"""A map whose key is a list or a map is one malformed object, not a crash.

An authority can publish any bytes at its own point.  ``[{[1]: 2},
b"sig"]`` is well-formed CTLV but for its key, which no Python
dictionary can hold: the generic decoder used to raise ``TypeError``
(unhashable) on it.  That escaped ``parse_object`` past its
``ObjectFormatError`` contract, so the monitor's ``take_snapshot``
raised — one hostile file blinded the countermeasure — and the relying
party recorded ``object-quarantined`` and never remembered the failure.
Now the codec refuses the key, and the file is judged like any other
undecodable one.
"""

import pytest

from repro.modelgen import build_figure2
from repro.monitor import take_snapshot
from repro.repository import Fetcher
from repro.rp import RelyingParty
from repro.rpki import ObjectFormatError

from ..crypto.reference_codec import encode
from ..rpki.forge import HashableMap, publish_forged

CONTINENTAL = "rsync://continental.example/repo/"
HOSTILE_FILE = "hostile.roa"
COMPLAINT = "undecodable object: map key is a container"

HOSTILE = {
    "list key": encode([{(1,): 2}, b"sig"]),
    "map key": encode([{HashableMap(): 2}, b"sig"]),
}


@pytest.fixture(params=sorted(HOSTILE))
def planted(request):
    """The Figure 2 world with the hostile file at Continental's point,
    under a manifest that lists it."""
    world = build_figure2()
    blob = HOSTILE[request.param]
    publish_forged(world.continental, {HOSTILE_FILE: blob})
    return world, blob


def test_the_snapshot_lists_the_file_as_unparsable(planted):
    world, _blob = planted
    snapshot = take_snapshot(world.registry, world.clock.now,
                             trust_anchors=world.trust_anchors)
    assert snapshot.unparsable == [(CONTINENTAL, HOSTILE_FILE)]
    assert (CONTINENTAL, HOSTILE_FILE) not in snapshot.records


def test_the_refresh_records_a_parse_failure_and_remembers_it(planted):
    world, blob = planted
    rp = RelyingParty(world.trust_anchors,
                      Fetcher(world.registry, world.clock))
    report = rp.refresh()
    assert [(issue.point_uri, issue.file_name, issue.code, issue.message)
            for issue in report.run.errors()] == [
        (CONTINENTAL, HOSTILE_FILE, "parse-failed", COMPLAINT)]
    assert len(rp.vrps) == 8

    # Judged again, the file is a parse-memo hit: the failure was kept.
    memo = rp.incremental_state.parse_memo
    hits, misses = memo.hits, memo.misses
    with pytest.raises(ObjectFormatError, match=COMPLAINT):
        memo.parse(blob)
    assert (memo.hits, memo.misses) == (hits + 1, misses)
