"""The delta hand-off: one VRP index edited in place, pinned to the oracle.

A relying party owns one :class:`VrpSet` for its lifetime; every refresh
edits it by the net ``(announced, withdrawn)`` of that refresh and hands
the same pair to the serving planes.  The oracle is its cold twin: the
same relying party, fed the same faults, that clears its validation
state before every refresh.  After any sequence of events the two must
agree on every answer, and the reported deltas must be exactly the
differences between consecutive oracle tables.
"""

import os
import random
import subprocess
import sys

import pytest

from repro.api import ApiConfig, QueryService
from repro.modelgen import build_figure2
from repro.repository import FaultInjector, FaultKind, Fetcher
from repro.resources import Prefix
from repro.rp import VRP, RelyingParty, VrpSet
from repro.rtr import RtrCacheServer
from repro.simtime import HOUR
from repro.telemetry import MetricsRegistry

SEEDS = range(8)
STEPS = 28

PROBES = [Prefix.parse(text) for text in (
    "63.160.0.0/12", "63.161.5.0/24", "63.168.93.128/25", "63.174.17.0/24",
    "63.174.16.0/20", "63.174.24.0/24", "10.0.0.0/8",
)]
ASNS = (64500, 64501, 64502)
# Prefixes each authority may sign for; Sprint's overlap its children's,
# so the same VRP gets asserted from two publication points.
POOLS = {
    "sprint": ("63.161.0.0/16-24", "63.163.0.0/16", "63.174.16.0/20",
               "63.174.16.0/22", "63.168.93.0/24"),
    "etb": ("63.168.93.0/24", "63.168.0.0/17", "63.168.128.0/18-20"),
    "continental": ("63.174.16.0/20", "63.174.16.0/22", "63.174.24.0/24"),
}


class Harness:
    """One Figure 2 world, the oracle, the in-place relying party, and
    everything fed from the latter's deltas."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.world = build_figure2()
        self.ee_key = self.world.key_factory.next_keypair()
        self.injectors = [FaultInjector(seed=seed), FaultInjector(seed=seed)]
        self.oracle, self.inplace = (
            RelyingParty(
                self.world.trust_anchors,
                Fetcher(self.world.registry, self.world.clock, faults=faults,
                        metrics=metrics),
                metrics=metrics,
            )
            for faults, metrics in (
                (self.injectors[0], MetricsRegistry()),
                (self.injectors[1], MetricsRegistry()),
            )
        )
        self.index = self.inplace.vrps
        self.service = QueryService(
            self.inplace, config=ApiConfig(rate_limit=None),
            metrics=MetricsRegistry(),
        )
        self.by_update = RtrCacheServer(metrics=MetricsRegistry())
        self.by_live_update = RtrCacheServer(metrics=MetricsRegistry())
        self.by_delta = RtrCacheServer(metrics=MetricsRegistry())
        self.issued: list[tuple[str, str]] = []   # (authority, file name)
        self.seen_prefixes: set[Prefix] = set(PROBES)
        self.refresh_and_compare()

    # -- events ------------------------------------------------------------

    def authority(self, name: str):
        return getattr(self.world, name)

    def issue(self, name=None, text=None, asn=None, **kwargs) -> None:
        name = name or self.rng.choice(sorted(POOLS))
        text = text or self.rng.choice(POOLS[name])
        asn = asn or self.rng.choice(ASNS)
        file_name, _roa = self.authority(name).issue_roa(
            asn, text, ee_key=self.ee_key, **kwargs
        )
        self.issued.append((name, file_name))

    def revoke(self) -> None:
        if self.issued:
            name, file_name = self.issued.pop(
                self.rng.randrange(len(self.issued))
            )
            self.authority(name).revoke_roa(file_name)

    def whack_child(self) -> None:
        """Sprint revokes Continental's certificate: the subtree vanishes."""
        sprint, child = self.world.sprint, self.world.continental
        if child.certificate in sprint.issued_certs.values():
            sprint.revoke_cert(child.certificate)

    def rekey(self) -> None:
        """Same VRPs under a new CA key: withdrawn here, announced there."""
        self.authority(self.rng.choice(("etb", "continental"))).roll_key()

    def twin(self) -> None:
        """One VRP asserted from two points; later revokes drop one."""
        text, asn = self.rng.choice(POOLS["continental"]), self.rng.choice(ASNS)
        self.issue("sprint", text, asn)
        self.issue("continental", text, asn)

    def short_lived(self) -> None:
        """A ROA whose expiry the next clock steps will cross."""
        self.issue(validity=HOUR + self.rng.randrange(HOUR))

    def fault(self) -> None:
        kind = self.rng.choice((FaultKind.UNREACHABLE, FaultKind.DROP))
        name = self.rng.choice(sorted(POOLS))
        uri = self.authority(name).sia
        file_name = None
        if kind is FaultKind.DROP:
            file_name = self.rng.choice(
                sorted(self.authority(name).issued_roas)
            )
        for injector in self.injectors:
            injector.schedule(kind, uri, file_name=file_name)

    def forget(self) -> None:
        self.inplace.incremental_state.clear()

    EVENTS = (issue, issue, issue, revoke, revoke, whack_child, rekey, twin,
              short_lived, fault, forget)

    def step(self) -> None:
        self.rng.choice(self.EVENTS)(self)
        self.world.clock.advance(self.rng.randrange(600, HOUR))

    # -- the comparison ----------------------------------------------------

    def cold_refresh(self):
        """The oracle's refresh, with every memo forgotten first."""
        self.oracle.incremental_state.clear()
        return self.oracle.refresh()

    def refresh_and_compare(self) -> None:
        before = self.oracle.vrps.as_frozenset()
        serial_before = self.service.serial
        oracle_report = self.cold_refresh()
        report = self.inplace.refresh()
        oracle, index = self.oracle.vrps, self.inplace.vrps
        now = oracle.as_frozenset()

        assert index is self.index and report.vrps is index
        assert index.as_frozenset() == now
        assert len(index) == len(oracle) and list(index) == list(oracle)
        assert index.content_hash() == oracle.content_hash()
        self.seen_prefixes.update(vrp.prefix for vrp in now)
        for prefix in self.seen_prefixes:
            assert tuple(index.covering(prefix)) == tuple(
                oracle.covering(prefix)
            )
        for asn in {int(vrp.asn) for vrp in now | before}:
            assert index.by_asn(asn) == oracle.by_asn(asn)

        for delta in (report, oracle_report):
            assert len(set(delta.announced)) == len(delta.announced)
            assert len(set(delta.withdrawn)) == len(delta.withdrawn)
            assert set(delta.announced) == now - before
            assert set(delta.withdrawn) == before - now

        self.by_update.update(oracle)
        self.by_live_update.update(index)
        self.by_delta.apply_delta(report.announced, report.withdrawn)
        assert (self.by_delta.serial == self.by_update.serial
                == self.by_live_update.serial)
        assert (self.by_delta.current_vrps() == now
                == self.by_live_update.current_vrps())

        changed = now != before
        assert self.service.serial == serial_before + changed
        assert self.service.content_hash == oracle.content_hash()
        if changed:
            entry = self.service.history().payload[-1]
            assert entry.added == tuple(sorted(now - before))
            assert entry.removed == tuple(sorted(before - now))
            assert entry.vrp_count == len(now)
        probe = self.rng.choice(sorted(self.seen_prefixes))
        assert self.service.lookup_prefix(probe).payload == tuple(
            oracle.covering(probe)
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_in_place_index_equals_the_serial_oracle(seed):
    harness = Harness(seed)
    for _ in range(STEPS):
        harness.step()
        harness.refresh_and_compare()


def test_every_event_kind_changes_what_it_should():
    """The events above are not no-ops: each moves the table as named."""
    harness = Harness(99)
    table = harness.index.as_frozenset
    vrp = VRP.parse("63.174.24.0/24", 64500)

    harness.issue("sprint", "63.174.24.0/24", 64500)
    harness.issue("continental", "63.174.24.0/24", 64500)
    harness.refresh_and_compare()
    assert vrp in table()
    harness.authority("sprint").revoke_roa(harness.issued.pop(0)[1])
    harness.refresh_and_compare()
    assert vrp in table(), "one assertion of two still stands"
    size = len(table())
    harness.world.continental.roll_key()
    report = harness.inplace.refresh()
    harness.cold_refresh()
    assert not report.announced and not report.withdrawn
    assert len(table()) == size
    harness.whack_child()
    harness.refresh_and_compare()
    assert vrp not in table() and len(table()) == 3
    harness.issue("etb", "63.168.0.0/17", 64501, validity=HOUR)
    harness.refresh_and_compare()
    assert len(table()) == 4
    harness.world.clock.advance(2 * HOUR)
    harness.refresh_and_compare()
    assert len(table()) == 3


def test_forgetting_all_state_withdraws_and_announces_everything_net_nothing():
    harness = Harness(5)
    members = {id(vrp) for vrp in harness.index.as_frozenset()}
    harness.forget()
    report = harness.inplace.refresh()
    harness.cold_refresh()
    assert report.announced == () and report.withdrawn == ()
    points = harness.inplace.metrics.get("repro_incremental_points_total")
    assert points.value(outcome="reused") == 0
    # Net nothing also means the index kept the objects it had.
    assert {id(vrp) for vrp in harness.index.as_frozenset()} == members
    harness.refresh_and_compare()


def test_a_refresh_that_raises_leaves_the_previous_epoch(monkeypatch):
    harness = Harness(3)
    rp, state = harness.inplace, harness.inplace.incremental_state
    heard = []
    rp.subscribe(lambda announced, withdrawn: heard.append(
        (announced, withdrawn)))
    before = harness.index.as_frozenset()
    fingerprint = harness.index.content_hash()
    emitted = dict(state.emitted)
    serial = harness.service.serial
    harness.issue("etb", "63.168.0.0/17", 64500)
    harness.issue("continental", "63.174.24.0/24", 64501)

    judge, calls = rp.validator._judge_point, []

    # A refresh judges only the two changed points: the second raises.
    def judge_then_fail(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("injected mid-walk")
        return judge(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(rp.validator, "_judge_point", judge_then_fail)
        with pytest.raises(RuntimeError, match="injected"):
            rp.refresh()
    assert heard == []
    assert harness.index.as_frozenset() == before
    assert harness.index.content_hash() == fingerprint
    assert state.emitted == emitted
    assert harness.service.serial == serial
    # The next refresh that completes catches up in one delta.
    harness.refresh_and_compare()
    assert len(heard) == 1 and len(heard[0][0]) == 2
    assert len(harness.index) == len(before) + 2


def test_vrps_before_the_first_refresh_is_one_object():
    """Regression: ``rp.vrps`` used to build a new empty set per call."""
    world = build_figure2()
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock),
        metrics=MetricsRegistry(),
    )
    assert rp.vrps is rp.vrps and len(rp.vrps) == 0
    service = QueryService(rp, metrics=MetricsRegistry())
    assert service.serial == 0
    report = rp.refresh()
    assert len(report.announced) == len(rp.vrps) == 8
    assert service.serial == 1
    assert rp.vrps is rp.incremental_state.vrps


def test_an_epoch_outlives_the_refresh_that_edits_the_index():
    """The one aliasing contract: ``vrps`` is the live index, and
    ``as_frozenset()`` keeps the epoch it was taken in."""
    world = build_figure2()
    rp = RelyingParty(world.trust_anchors,
                      Fetcher(world.registry, world.clock),
                      metrics=MetricsRegistry())
    first = rp.refresh().vrps
    epoch = first.as_frozenset()
    world.continental.revoke_roa(world.target20_name)
    second = rp.refresh().vrps
    assert first is second is rp.vrps and len(second) == 7
    assert len(epoch) == 8 and second.as_frozenset() < epoch


def test_vrp_changes_are_counted_by_kind():
    world = build_figure2()
    metrics = MetricsRegistry()
    rp = RelyingParty(world.trust_anchors,
                      Fetcher(world.registry, world.clock, metrics=metrics),
                      metrics=metrics)
    rp.refresh()
    world.continental.revoke_roa(world.target20_name)
    rp.refresh()
    rp.refresh()
    changes = metrics.get("repro_rp_vrp_changes_total")
    assert changes.value(kind="announced") == 8
    assert changes.value(kind="withdrawn") == 1


# -- the fingerprint ---------------------------------------------------------

def _universe() -> list[VRP]:
    vrps = [
        VRP.parse(f"10.{i}.0.0/16-{16 + i % 9}", 64500 + i % 5)
        for i in range(40)
    ]
    vrps += [VRP.parse("10.0.0.0/8", asn) for asn in (1, 2, 3)]
    vrps += [VRP.parse(f"2001:db8:{i:x}::/48-{48 + i % 17}", 64500 + i % 3)
             for i in range(20)]
    return vrps


def test_content_hash_is_a_function_of_content_only():
    """Equal iff the sets are equal, across >= 1,000 random edits, and
    equal to a from-scratch set's — whatever edits led here."""
    rng = random.Random(16)
    universe = _universe()
    edited = VrpSet()
    hash_of: dict[frozenset, str] = {}
    content_of: dict[str, frozenset] = {}
    for edit in range(1200):
        announced = rng.sample(universe, rng.randrange(0, 4))
        withdrawn = rng.sample(universe, rng.randrange(0, 4))
        edited.apply_delta(announced, withdrawn)
        content = edited.as_frozenset()
        digest = edited.content_hash()
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert hash_of.setdefault(content, digest) == digest
        assert content_of.setdefault(digest, content) == content
        if edit % 40 == 0:
            scratch = VrpSet(content)
            assert scratch.content_hash() == digest
            assert scratch == edited and list(scratch) == list(edited)
            for vrp in universe:
                assert tuple(scratch.covering(vrp.prefix)) == tuple(
                    edited.covering(vrp.prefix)
                )
                assert scratch.by_asn(vrp.asn) == edited.by_asn(vrp.asn)
    assert len(hash_of) > 300, "the walk must visit many distinct tables"
    assert len(hash_of) < 1200, "and revisit some (A -> B -> A)"


def test_assertions_are_counted():
    vrp, other = _universe()[:2]
    table = VrpSet([vrp, vrp, other])
    assert len(table) == 2
    assert table.apply_delta((), (vrp,)) == ((), ())
    assert vrp in table
    assert table.apply_delta((), (vrp,)) == ((), (vrp,))
    assert vrp not in table and list(table.covering(vrp.prefix)) == []
    # Withdrawing what is not asserted is ignored; withdrawn-and-announced
    # in one delta is no change at all.
    assert table.apply_delta((), (vrp,)) == ((), ())
    assert table.apply_delta((other,), (other,)) == ((), ())
    assert table.as_frozenset() == {other}


def test_content_hash_does_not_depend_on_the_process_hash_seed():
    script = (
        "from repro.rp import VRP, VrpSet\n"
        "s = VrpSet(VRP.parse(f'10.{i}.0.0/16-20', 64500 + i) "
        "for i in range(50))\n"
        "s.apply_delta([VRP.parse('2001:db8::/32', 1)], "
        "[VRP.parse('10.7.0.0/16-20', 64507)])\n"
        "print(s.content_hash())\n"
    )
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        digests.add(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True, timeout=60,
        ).stdout.strip())
    assert len(digests) == 1 and len(digests.pop()) == 64
