"""The fetch and cache counters read what the refreshes' results say.

The fetcher tallies its outcomes and the cache its not-modified stamps
as plain integers the registry pulls; every other count is a bound
child.  Over one seeded sequence of refreshes — cold, idle, one churned
point, a point that resolves only after it is mounted, timing faults on
a resilient fetcher with its breaker opening, and a registry reset
midway — the registry must read exactly what a tally of
``report.fetches`` since the reset gives, and render no series that
tally leaves at zero.
"""

from collections import Counter

from repro.modelgen import build_figure2
from repro.repository import PERSISTENT, FaultInjector, FaultKind, Fetcher
from repro.rp import RelyingParty
from repro.resources import ResourceSet
from repro.simtime import HOUR
from repro.telemetry import MetricsRegistry

LATE_URI = "rsync://continental.example/late/"


def rendered(metrics: MetricsRegistry, name: str) -> dict:
    """The series *name* renders: label values -> value."""
    return {tuple(labels.values()): child.value
            for labels, child in metrics.get(name).samples()}


def tallied(fetches) -> dict[str, dict]:
    """What the counters should read, from the results alone."""
    statuses = Counter((f.status.value,) for f in fetches)
    effects = Counter(
        ("unchanged",) if f.unchanged else ("hit",) if f.ok
        else ("stale_keep",) for f in fetches)
    files = sum(len(f.files) for f in fetches)
    size = sum(len(data) for f in fetches for data in f.files.values())
    return {
        "repro_fetch_total": dict(statuses),
        "repro_cache_updates_total": dict(effects),
        "repro_fetch_objects_total": {(): files} if files else {},
        "repro_fetch_bytes_total": {(): size} if size else {},
    }


def test_the_counters_read_the_tally_of_the_fetch_results():
    world = build_figure2()
    metrics, faults = MetricsRegistry(), FaultInjector(seed=7)
    fetcher = Fetcher(world.registry, world.clock, faults=faults,
                      resilient=True, metrics=metrics)
    rp = RelyingParty(world.trust_anchors, fetcher, metrics=metrics)
    fetches = []

    def refresh():
        report = rp.refresh()
        fetches.extend(report.fetches)
        world.clock.advance(HOUR)
        assert {name: rendered(metrics, name)
                for name in tallied(())} == tallied(fetches)
        return report

    refresh()                                       # cold
    assert all(f.unchanged for f in refresh().fetches)  # idle
    world.continental.issue_roa(17054, "63.174.20.0/24")
    churned = refresh()
    assert [f.uri for f in churned.fetches if not f.unchanged] == [
        "rsync://continental.example/repo/"]

    # A CA whose point is not mounted yet: an unknown host, then served
    # on the first refresh after the mount.
    late = world.continental.issue_child_authority(
        "Late", ResourceSet.parse("63.174.24.0/24"), sia=LATE_URI)
    late.issue_roa(64500, "63.174.24.0/24")
    missing = refresh()
    missing_vrps = len(missing.vrps)
    assert [f.status.value for f in missing.fetches
            if f.uri == LATE_URI] == ["unknown-host"]
    point = world.registry.by_host("continental.example").mount(LATE_URI)
    for name in late.publication_point.names():
        point.put(name, late.publication_point.get(name))
    served = refresh()
    assert [f.files == point.snapshot() for f in served.fetches
            if f.uri == LATE_URI] == [True]
    assert len(served.vrps) == missing_vrps + 1

    metrics.reset()
    fetches.clear()
    # A flaky point recovers by retrying; a stalling one opens its
    # host's breaker, which then skips it.
    faults.schedule(FaultKind.FLAKY, "rsync://sprint.example/", count=2)
    faults.schedule(FaultKind.STALL, "rsync://etb.example/",
                    count=PERSISTENT)
    for _ in range(3):
        refresh()
    by_uri = {}
    for f in fetches:
        by_uri.setdefault(f.uri, []).append(f.status.value)
    assert by_uri["rsync://sprint.example/repo/"] == ["ok"] * 3
    assert by_uri["rsync://etb.example/repo/"] == [
        "timeout", "breaker-open", "breaker-open"]
    assert metrics.get("repro_fetch_breaker_skips_total").value() == 2
