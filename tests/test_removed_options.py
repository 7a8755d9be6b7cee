"""Options no caller ever set are constants: passing one is a TypeError.

A configuration class left with no such option is gone: importing it is
an ImportError.

Each bound still holds at its shipped value; the tests that exercise it
(``tests/rtr/test_session.py::TestDeltaCompaction``,
``tests/rp/test_containment.py``, ``tests/test_simtime.py``) run at that
value.  So do the fetch defenses (``tests/repository/test_resilience.py``,
``tests/repository/test_scheduler.py``), the stall monitor
(``tests/monitor/test_stall.py``) and the chaos harness
(``tests/chaos/test_chaos.py``), whose settings only tests ever set.
"""

import pytest

from repro.chaos import (
    CampaignConfig,
    FaultPlan,
    PlannedFault,
    StallorisConfig,
    build_plan,
    shrink_plan,
)
from repro.monitor import StallDetector
from repro.repository import (
    CircuitBreaker,
    FaultKind,
    Fetcher,
    HostedPublicationPoint,
    HostLocator,
    RepositoryRegistry,
    FetchScheduler,
    RsyncUri,
)
from repro.rp import ParseMemo, RelyingParty
from repro.rpki import InMemoryPublicationPoint
from repro.rpki.publication import DEFAULT_HISTORY_LIMIT
from repro.rtr import ChainedRtrCache, RtrCacheServer
from repro.simtime import Clock
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
    "Fetcher(resilience=)":
        lambda: Fetcher(RepositoryRegistry(), Clock(), resilience=None),
    "CircuitBreaker(policy)": lambda: CircuitBreaker("h", None),
    # SchedulerConfig is gone (see GONE); the options it shed stay off
    # the scheduler that now holds its one value as a constant.
    "SchedulerConfig(authority_max_points=)":
        lambda: FetchScheduler(authority_max_points=1),
    "SchedulerConfig(probes_per_cycle=)":
        lambda: FetchScheduler(probes_per_cycle=1),
    "SchedulerConfig(ewma_alpha=)": lambda: FetchScheduler(ewma_alpha=0.5),
    "SchedulerConfig(authority_weights=)":
        lambda: FetchScheduler(authority_weights={}),
    "RelyingParty(schedule=)":
        lambda: RelyingParty([], Fetcher(RepositoryRegistry(), Clock()),
                             schedule=None),
    "FetchScheduler(config)": lambda: FetchScheduler(None),
    "FetchScheduler.admit(remaining_budget=)":
        lambda: FetchScheduler(metrics=MetricsRegistry()).admit(
            "rsync://a.example/repo/", remaining_budget=1),
    "StallDetector(config=)": lambda: StallDetector(config=None),
    "CampaignConfig(interference_bound=)": lambda: CampaignConfig(interference_bound=1),
    "CampaignConfig(gap_seconds=)": lambda: CampaignConfig(gap_seconds=1),
    "CampaignConfig(attempt_timeout=)": lambda: CampaignConfig(attempt_timeout=1),
    "CampaignConfig(rir_count=)": lambda: CampaignConfig(rir_count=1),
    "CampaignConfig(isps_per_rir=)": lambda: CampaignConfig(isps_per_rir=1),
    "CampaignConfig(customers_per_isp=)": lambda: CampaignConfig(customers_per_isp=1),
    "CampaignConfig(rtr_tiers=)": lambda: CampaignConfig(rtr_tiers=1),
    "CampaignConfig(rtr_fanout=)": lambda: CampaignConfig(rtr_fanout=1),
    "StallorisConfig(gap_seconds=)": lambda: StallorisConfig(gap_seconds=1),
    "StallorisConfig(attempt_timeout=)": lambda: StallorisConfig(attempt_timeout=1),
    "StallorisConfig(fetch_budget=)": lambda: StallorisConfig(fetch_budget=1),
    "StallorisConfig(stale_grace=)": lambda: StallorisConfig(stale_grace=1),
    "StallorisConfig(rir_count=)": lambda: StallorisConfig(rir_count=1),
    "StallorisConfig(isps_per_rir=)": lambda: StallorisConfig(isps_per_rir=1),
    "StallorisConfig(customers_per_isp=)": lambda: StallorisConfig(customers_per_isp=1),
    "shrink_plan(max_runs=)": lambda: shrink_plan(
        CampaignConfig(), FaultPlan(seed=7, cycles=1), max_runs=1),
    "build_plan(max_per_cycle=)": lambda: build_plan(
        7, 1, ["rsync://a.example/repo/"], max_per_cycle=1),
    "PlannedFault(fail_rate=)": lambda: PlannedFault(
        0, FaultKind.FLAKY, "rsync://a.example/repo/", fail_rate=0.5),
}


@pytest.mark.parametrize("make", REMOVED.values(), ids=REMOVED.keys())
def test_removed_option_is_a_type_error(make):
    with pytest.raises(TypeError):
        make()


def import_scheduler_config():
    from repro.repository.scheduler import SchedulerConfig  # noqa: F401


# Classes no caller outside the tests ever configured: importing one is an
# ImportError.
GONE = {
    "SchedulerConfig": import_scheduler_config,
}


@pytest.mark.parametrize("load", GONE.values(), ids=GONE.keys())
def test_removed_name_is_an_import_error(load):
    with pytest.raises(ImportError):
        load()


def test_the_constants_are_in_force():
    assert InMemoryPublicationPoint()._history.maxlen == DEFAULT_HISTORY_LIMIT
    assert hosted()._history.maxlen == DEFAULT_HISTORY_LIMIT
