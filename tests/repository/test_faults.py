"""FaultInjector seeding and scheduling: the fault plan is a pure function.

The monitor's detectability experiments and the resilience benchmark both
lean on one property: given a seed and a fetch order, the injector
applies *exactly* the same faults in the same order every run.  These
tests pin that property directly on the injector, independent of the
fetcher that normally drives it — and pin that the fetcher never
answers a fetch the plan could touch as not-modified, so the plan sees
every fetch it saw before serials existed.
"""

import pytest

from repro.modelgen import build_figure2
from repro.repository import (
    BYZANTINE_KINDS,
    PERSISTENT,
    Fault,
    FaultInjector,
    FaultKind,
    Fetcher,
)
from repro.repository.faults import POINT_KINDS
from repro.rp import RelyingParty
from repro.rpki import CRL_FILE
from repro.telemetry import MetricsRegistry

POINT = "rsync://continental.example/repo/"
OTHER = "rsync://sprint.example/repo/"


def drive(injector, rounds=20):
    """A fixed fetch order: each round touches both points and two files."""
    outcomes = []
    for _ in range(rounds):
        for uri in (POINT, OTHER):
            outcomes.append(("delay", uri, injector.point_delay(uri)))
            outcomes.append(("flaky", uri, injector.attempt_fails(uri)))
            outcomes.append(("unreach", uri, injector.point_unreachable(uri)))
            for name in ("a.roa", "b.roa"):
                outcomes.append(
                    ("file", uri, injector.filter_file(uri, name, b"payload"))
                )
    return outcomes


def build(seed):
    injector = FaultInjector(seed=seed, background_rate=0.3)
    injector.schedule(FaultKind.FLAKY, POINT, count=PERSISTENT)
    injector.schedule(FaultKind.DELAY, OTHER, count=3, delay_seconds=7)
    injector.schedule(FaultKind.CORRUPT, POINT, file_name="a.roa", count=2)
    return injector


class TestSeedDeterminism:
    def test_same_seed_identical_fault_sequence(self):
        """Same seed => identical applied sequence AND identical outcomes."""
        first, second = build(seed=42), build(seed=42)
        assert drive(first) == drive(second)
        assert first.applied == second.applied
        assert first.applied  # the scenario actually exercised faults

    def test_different_seed_diverges(self):
        # 20 rounds of 30% background drops over four files: the chance
        # two different seeds produce identical streams is negligible.
        assert drive(build(seed=1)) != drive(build(seed=2))

    def test_seeded_stream_independent_of_scheduling_time(self):
        """Scheduling more exact faults does not perturb the RNG stream."""
        plain = FaultInjector(seed=7, background_rate=0.5)
        busy = FaultInjector(seed=7, background_rate=0.5)
        busy.schedule(FaultKind.STALL, OTHER, count=PERSISTENT)
        busy.schedule(FaultKind.DROP, OTHER, file_name="x.roa")
        busy.schedule(FaultKind.FLAKY, POINT, count=5)
        drops_plain = [plain.filter_file(POINT, f"{i}.roa", b"x")
                       for i in range(20)]
        drops_busy = [busy.filter_file(POINT, f"{i}.roa", b"x")
                      for i in range(20)]
        assert drops_plain == drops_busy
        assert None in drops_plain and b"x" in drops_plain


class TestScheduling:
    def test_counts_exhaust_exactly(self):
        injector = FaultInjector()
        injector.schedule(FaultKind.UNREACHABLE, POINT, count=2)
        hits = [injector.point_unreachable(POINT) for _ in range(4)]
        assert hits == [True, True, False, False]

    def test_persistent_never_exhausts(self):
        injector = FaultInjector()
        injector.schedule(FaultKind.STALL, POINT, count=PERSISTENT)
        assert all(injector.point_delay(POINT) is None for _ in range(50))

    def test_delay_then_clean(self):
        injector = FaultInjector()
        injector.schedule(FaultKind.DELAY, POINT, count=1, delay_seconds=9)
        assert injector.point_delay(POINT) == 9
        assert injector.point_delay(POINT) == 0

    def test_flaky_fails_every_matched_attempt(self):
        injector = FaultInjector(seed=3)
        fault = injector.schedule(FaultKind.FLAKY, POINT, count=2)
        assert [injector.attempt_fails(POINT) for _ in range(3)] == [
            True, True, False
        ]
        assert fault.remaining == 0
        assert not injector.attempt_fails(OTHER)

    def test_point_kinds_reject_file_scoping(self):
        injector = FaultInjector()
        for kind in POINT_KINDS:
            with pytest.raises(ValueError):
                injector.schedule(kind, POINT, file_name="a.roa")

    def test_validation(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.schedule(FaultKind.DELAY, POINT, delay_seconds=-1)
        with pytest.raises(ValueError):
            FaultInjector(background_rate=2.0)

    def test_prefix_matching_scopes_faults(self):
        fault = Fault(kind=FaultKind.STALL, uri_prefix=POINT)
        assert fault.matches(POINT, None)
        assert fault.matches(POINT + "sub/", None)
        assert not fault.matches(OTHER, None)

    def test_clear_cancels_scheduled_faults(self):
        injector = FaultInjector()
        injector.schedule(FaultKind.STALL, POINT, count=PERSISTENT)
        injector.clear()
        assert injector.point_delay(POINT) == 0


# -- the fetcher's full path -------------------------------------------------

def faulted_world(faults):
    world = build_figure2()
    metrics = MetricsRegistry()
    return world, Fetcher(world.registry, world.clock, faults=faults,
                          metrics=metrics)


class TestFaultsTakeTheFullPath:
    @pytest.mark.parametrize("kind", list(FaultKind), ids=lambda k: k.value)
    def test_a_fault_matching_the_point_defeats_the_serial(self, kind):
        faults = FaultInjector(seed=5)
        world, fetcher = faulted_world(faults)
        uri, point = world.continental.sia, world.continental.publication_point
        serial = fetcher.fetch_point(uri).serial
        assert serial == point.serial
        whole = kind in POINT_KINDS or kind in BYZANTINE_KINDS
        faults.schedule(kind, uri,
                        file_name=None if whole else next(point.names()))
        result = fetcher.fetch_point(uri, serial=serial)
        assert not result.unchanged and result.serial is None
        assert [k for _, _, k in faults.applied] == [kind]

    def test_a_background_rate_defeats_the_serial(self):
        faults = FaultInjector(seed=5, background_rate=0.01)
        world, fetcher = faulted_world(faults)
        uri = world.continental.sia
        first = fetcher.fetch_point(uri)
        assert first.serial is None
        again = fetcher.fetch_point(
            uri, serial=world.continental.publication_point.serial)
        assert not again.unchanged and again.files

    def test_a_fault_elsewhere_leaves_the_point_not_modified(self):
        faults = FaultInjector(seed=5)
        world, fetcher = faulted_world(faults)
        uri = world.continental.sia
        faults.schedule(FaultKind.STALL, world.sprint.sia, count=PERSISTENT)
        faults.schedule(FaultKind.CORRUPT, world.sprint.sia,
                        file_name=CRL_FILE, count=PERSISTENT)
        serial = fetcher.fetch_point(uri).serial
        assert fetcher.fetch_point(uri, serial=serial).unchanged
        assert not faults.applied

    @pytest.mark.parametrize(
        "kind", (FaultKind.CORRUPT, FaultKind.TRUNCATE, FaultKind.DROP),
        ids=lambda k: k.value)
    def test_a_one_shot_file_fault_heals_on_the_next_refresh(self, kind):
        """The damaged copy is stored without a serial, so the next fetch
        is a full one and the cache is byte-equal to the server again."""
        faults = FaultInjector(seed=5)
        world, fetcher = faulted_world(faults)
        rp = RelyingParty(world.trust_anchors, fetcher,
                          metrics=fetcher.metrics)
        rp.refresh()
        uri, point = world.continental.sia, world.continental.publication_point
        faults.schedule(kind, uri, file_name=next(point.names()))
        rp.refresh()
        cached = rp.cache.point(uri)
        assert cached.files != point.snapshot() and cached.serial is None
        rp.refresh()
        cached = rp.cache.point(uri)
        assert cached.files == point.snapshot()
        assert cached.serial == point.serial
