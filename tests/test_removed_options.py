"""Options no caller ever set are constants: passing one is a TypeError.

Each bound still holds at its shipped value; the tests that exercise it
(``tests/rtr/test_session.py::TestDeltaCompaction``,
``tests/rp/test_containment.py``, ``tests/test_simtime.py``) run at that
value.
"""

import pytest

from repro.repository import (
    HostedPublicationPoint,
    HostLocator,
    RepositoryRegistry,
    RsyncUri,
)
from repro.rp import ParseMemo
from repro.rpki import InMemoryPublicationPoint
from repro.rpki.publication import DEFAULT_HISTORY_LIMIT
from repro.rtr import ChainedRtrCache, RtrCacheServer
from repro.telemetry import MetricsRegistry


def hosted(**options):
    server = RepositoryRegistry().create_server(
        "repo.example", HostLocator.parse("192.0.2.1", 64_496))
    return HostedPublicationPoint(
        server, RsyncUri.parse("rsync://repo.example/repo/"), **options)


def chained(**options):
    return ChainedRtrCache(RtrCacheServer(metrics=MetricsRegistry()),
                           **options)


REMOVED = {
    "ChainedRtrCache(session_id=)": lambda: chained(session_id=2),
    "ChainedRtrCache(history_window=)": lambda: chained(history_window=4),
    "RtrCacheServer(fairness_budget=)":
        lambda: RtrCacheServer(fairness_budget=8),
    "RtrCacheServer(max_history_vrps=)":
        lambda: RtrCacheServer(max_history_vrps=8),
    "InMemoryPublicationPoint(history_limit=)":
        lambda: InMemoryPublicationPoint(history_limit=2),
    "HostedPublicationPoint(history_limit=)": lambda: hosted(history_limit=2),
    "ParseMemo(max_object_bytes=)": lambda: ParseMemo(max_object_bytes=1),
}


@pytest.mark.parametrize("make", REMOVED.values(), ids=REMOVED.keys())
def test_removed_option_is_a_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_the_constants_are_in_force():
    assert InMemoryPublicationPoint()._history.maxlen == DEFAULT_HISTORY_LIMIT
    assert hosted()._history.maxlen == DEFAULT_HISTORY_LIMIT
