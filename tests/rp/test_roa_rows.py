"""ROA verdict rows and the exact time signature, pinned to the cold oracle.

A relying party judges an unchanged ROA again from its row (a function
of the ROA's bytes and its issuing certificate, kept under both) and
replays a publication point while ``now`` stays on the same side of
every start and end its objects carry.  Neither may change a word a cold
validator would say: after every event below, and at every collected
boundary ``b`` at ``b - 1``, ``b`` and ``b + 1``, the warm run must
equal a new validator's cold :meth:`PathValidator.run` field for field,
issue texts included — and that cold run must reach the reference
validator's verdicts (``reference_validator.py``).

The events include two a relying party cannot see coming: a repository
that changes bytes without bumping its serial (the stale copy is served
and judged, never the server's), and a repository host that drops off
the network and comes back with its serial unchanged.
"""

import dataclasses
import random
import tracemalloc

import pytest

from repro.crypto import KeyFactory
from repro.modelgen import INTERNET_SCALES, build_deployment, build_figure2
from repro.repository import Fetcher, HostedPublicationPoint
from repro.repository.cache import CacheFreshness
from repro.resources import ResourceSet
from repro.rp import PathValidator, RelyingParty
from repro.rpki import (
    CRL_FILE,
    MANIFEST_FILE,
    IssuanceError,
    Roa,
    RoaPrefix,
    build_certificate,
    build_roa,
    parse_object,
)
from repro.simtime import DAY, HOUR
from repro.telemetry import MetricsRegistry

from ..helpers import all_files
from ..rpki.forge import crl_bytes, publish_forged
from .reference_validator import assert_agrees
from .test_incremental import count_roa_parses

SEEDS = range(8)
STEPS = 14
# Prefixes each authority may sign for; Sprint's overlap Continental's.
POOLS = {
    "sprint": ("63.161.0.0/16-24", "63.174.16.0/20", "63.174.16.0/22"),
    "etb": ("63.168.93.0/24", "63.168.0.0/17"),
    "continental": ("63.174.16.0/20", "63.174.16.0/22", "63.174.24.0/24"),
}
FULL, SHRUNK = (ResourceSet.parse(text)
                for text in ("63.174.16.0/20", "63.174.16.0/22"))
EE_KEY = KeyFactory(seed=2525).next_keypair()


class SerialLiar(HostedPublicationPoint):
    """A repository that writes new bytes under its old serial."""

    def put(self, name: str, data: bytes) -> None:
        self._files[name] = data

    def delete(self, name: str) -> None:
        self._files.pop(name, None)


def stateful_rp(world) -> RelyingParty:
    metrics = MetricsRegistry()
    return RelyingParty(
        world.trust_anchors,
        Fetcher(world.registry, world.clock, metrics=metrics),
        metrics=metrics,
    )


def cold(rp, now, *, reference=True):
    """What a new validator says about *rp*'s cache at *now* — once it
    has been checked against the reference validator, unless told not
    to."""
    validator = PathValidator(rp.validator.trust_anchors,
                              metrics=MetricsRegistry())
    files = all_files(rp.cache, now)
    run = validator.run(files, now)
    if reference:
        assert_agrees(run, validator.trust_anchors, files, now)
    return run


def issue_codes(run, file_name) -> list[str]:
    return [issue.code for issue in run.issues if issue.file_name == file_name]


class Harness:
    """One Figure 2 world, a stateful relying party, and the events."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.world = build_figure2()
        self.rp = stateful_rp(self.world)
        self.down: set = set()                    # unreachable locators
        self.rp.fetcher.reachability = lambda locator: locator not in self.down
        self.issued: list[tuple[str, str]] = []   # (authority, file name)
        self.compare()

    def authority(self, name: str):
        return getattr(self.world, name)

    # -- events --------------------------------------------------------------

    def issue(self) -> None:
        name = self.rng.choice(sorted(POOLS))
        validity = self.rng.choice((HOUR, 5 * HOUR, DAY, 90 * DAY))
        try:
            file_name, _roa = self.authority(name).issue_roa(
                self.rng.choice((64500, 64501)),
                self.rng.choice(POOLS[name]),
                validity=validity, ee_key=EE_KEY,
            )
        except IssuanceError:
            return  # Continental's certificate is shrunk just now
        self.issued.append((name, file_name))

    def revoke(self) -> None:
        if self.issued:
            name, file_name = self.issued.pop(
                self.rng.randrange(len(self.issued)))
            self.authority(name).revoke_roa(file_name)

    def renew(self) -> None:
        if self.issued:
            name, file_name = self.rng.choice(self.issued)
            try:
                self.authority(name).renew_roa(
                    file_name, validity=self.rng.choice((2 * HOUR, DAY)))
            except IssuanceError:
                pass

    def reissue_parent(self) -> None:
        """Sprint re-issues Continental's certificate shrunk, or whole."""
        continental = self.world.continental
        resources = FULL if continental.resources == SHRUNK else SHRUNK
        self.world.sprint.overwrite_child_cert(continental.key_id, resources)

    def crl_names_an_ee(self) -> None:
        """A CRL entry for an EE whose ROA stays published."""
        if self.issued:
            name, file_name = self.rng.choice(self.issued)
            authority = self.authority(name)
            authority._revoke(authority.roa_named(file_name).ee_cert.serial)
            authority.publish()

    def second_ca(self) -> None:
        """The same ROA bytes published again under Sprint."""
        roas = self.world.continental.issued_roas
        if roas:
            file_name = self.rng.choice(sorted(roas))
            self.world.sprint._issued_roas["twin-" + file_name] = \
                roas[file_name]
            self.world.sprint.publish()
            self.issued.append(("sprint", "twin-" + file_name))

    def land_on_a_boundary(self) -> None:
        """Put the relying party's own refresh on b - 1, b or b + 1."""
        now = self.world.clock.now
        ahead = [b for b in self.boundaries() if b > now]
        if ahead:
            target = min(ahead[:3], key=lambda b: self.rng.random())
            self.world.clock.at_least(target + self.rng.choice((-1, 0, 1)))

    def lie_about_serial(self) -> None:
        """The next change lands under its repository's old serial."""
        points = [self.authority(name).publication_point for name in POOLS]
        for point in points:
            point.__class__ = SerialLiar
        try:
            self.rng.choice((Harness.issue, Harness.revoke, Harness.renew))(
                self)
        finally:
            for point in points:
                point.__class__ = HostedPublicationPoint

    def flip_reachability(self) -> None:
        """A repository host drops off the network, or the one down is
        back with whatever serial it had."""
        if self.down:
            self.down.clear()
        else:
            servers = sorted(self.world.registry.servers(),
                             key=lambda server: server.host)
            self.down.add(self.rng.choice(servers).locator)

    EVENTS = (issue, issue, revoke, renew, reissue_parent, crl_names_an_ee,
              second_ca, land_on_a_boundary, land_on_a_boundary,
              lie_about_serial, flip_reachability)

    def step(self) -> None:
        self.rng.choice(self.EVENTS)(self)
        if self.rng.random() < 0.5:
            self.world.clock.advance(self.rng.choice((1, 600, HOUR)))

    # -- the comparison ------------------------------------------------------

    def boundaries(self) -> list[int]:
        """Every start and end the kept point results were judged by:
        the live CAs', since a vanished CA's govern no verdict."""
        return sorted({
            b for level in self.rp.incremental_state.levels
            for entry in level.results.values()
            for side in entry.boundaries for b in side
        })

    def compare(self) -> None:
        now = self.world.clock.now
        assert self.rp.refresh().run == cold(self.rp, now)

    def sweep(self, sample: int, *, reference: bool) -> None:
        """The stateful validator at b - 1, b, b + 1 of some boundaries —
        backwards in time as well as forwards."""
        files, digests = all_files(self.rp.cache), self.rp.cache.digests()
        picked = self.rng.sample(self.boundaries(), sample)
        for b in picked:
            for at in (b - 1, b, b + 1):
                if at >= 0:
                    warm = self.rp.validator.run(files, at, digests=digests)
                    assert warm == cold(self.rp, at, reference=reference), at


@pytest.mark.parametrize("seed", SEEDS)
def test_stateful_runs_equal_the_cold_oracle_at_every_boundary(seed):
    harness = Harness(seed)
    for _ in range(STEPS):
        harness.step()
        harness.compare()
        harness.sweep(sample=min(2, len(harness.boundaries())),
                      reference=False)
    # Once, every collected boundary, the reference validator included.
    harness.sweep(sample=len(harness.boundaries()), reference=True)


def test_replayed_issue_texts_carry_no_stale_instant():
    """Regression: a replayed point repeated the instant it was judged at
    ("... is in the past (now 172800)") where a cold run said the
    current one, so warm != cold."""
    world = build_deployment(dataclasses.replace(
        INTERNET_SCALES["internet-small"], isps_per_rir=2, seed=3))
    rp = stateful_rp(world)
    rp.refresh()
    world.clock.advance(2 * DAY)
    rp.refresh()
    world.clock.advance(HOUR)
    report = rp.refresh()
    assert report.run.has_issue("crl-stale")
    assert report.run == cold(rp, world.clock.now, reference=False)


# -- what a repository can hide ----------------------------------------------

def cached_next_update(rp, uri) -> int:
    """The earlier of the cached copy's manifest and CRL nextUpdate."""
    files = rp.cache.point(uri).files
    return min(parse_object(files[name]).next_update
               for name in (MANIFEST_FILE, CRL_FILE))


def test_a_serial_liar_is_served_stale_until_its_next_update():
    """Bytes changed under an unchanged serial never reach the relying
    party: it keeps judging its copy, replays it while that copy is
    current, and re-walks it into ``manifest-stale`` / ``crl-stale``
    past the copy's nextUpdate — never raising, always equal to cold."""
    world = build_figure2()
    rp = stateful_rp(world)
    rp.refresh()
    continental = world.continental
    uri, point = continental.sia, continental.publication_point
    held = dict(rp.cache.point(uri).files)
    points = rp.metrics.get("repro_incremental_points_total")
    point.__class__ = SerialLiar
    world.clock.advance(HOUR)
    continental.issue_roa(64_500, "63.174.24.0/24", ee_key=EE_KEY)
    assert point.snapshot() != held
    boundary = cached_next_update(rp, uri)
    for at in (world.clock.now, boundary):
        world.clock.at_least(at)
        validated = points.value(outcome="validated")
        run = rp.refresh().run
        assert rp.cache.point(uri).files == held
        assert points.value(outcome="validated") == validated
        assert not [i for i in run.issues if i.point_uri == uri]
        assert run == cold(rp, world.clock.now)
    world.clock.advance(1)
    validated = points.value(outcome="validated")
    run = rp.refresh().run
    assert points.value(outcome="validated") > validated
    assert {"manifest-stale", "crl-stale"} <= {
        i.code for i in run.issues if i.point_uri == uri}
    # What the liar serves is current; what the relying party holds is not.
    assert parse_object(point.get(MANIFEST_FILE)).next_update > world.clock.now
    assert run == cold(rp, world.clock.now)


def test_a_host_back_online_is_fresh_without_a_copy(monkeypatch):
    """Unreachable, then reachable with its serial unchanged: the point
    is served stale in between, then answered not-modified — FRESH,
    replayed, nothing copied."""
    world = build_figure2()
    rp = stateful_rp(world)
    uri = world.continental.sia
    down = set()
    rp.fetcher.reachability = lambda at: at not in down
    rp.refresh()
    down.add(world.registry.resolve(uri).server.locator)
    world.clock.advance(1)
    report = rp.refresh()
    assert report.freshness[uri] is CacheFreshness.STALE
    assert report.run == cold(rp, world.clock.now)
    down.clear()
    points = rp.metrics.get("repro_incremental_points_total")
    validated = points.value(outcome="validated")
    copies = []
    monkeypatch.setattr(HostedPublicationPoint, "snapshot", lambda self: (
        copies.append(self), dict(self._files))[1])
    world.clock.advance(1)
    report = rp.refresh()
    assert [r.unchanged for r in report.fetches if r.uri == uri] == [True]
    assert report.freshness[uri] is CacheFreshness.FRESH
    assert copies == [] and points.value(outcome="validated") == validated
    assert report.run == cold(rp, world.clock.now)


# -- the check order, which a row must keep --------------------------------

def publish_roa(world, file_name, *, ee_resources=FULL, validity=DAY,
                ee_signer=None, roa_signer=EE_KEY, serial=9_101) -> Roa:
    """A ROA on Continental's point, as a misbehaving Continental (or
    someone with the wrong keys) could sign it."""
    ca, now = world.continental, world.clock.now
    ee_cert = build_certificate(
        issuer_key=ee_signer or ca.key, issuer_key_id=ca.key_id,
        subject="ordering-ee", subject_key=EE_KEY.public,
        ip_resources=ee_resources, serial=serial, not_before=now,
        not_after=now + validity, sia="", crldp=ca.crl_uri, is_ca=False,
    )
    roa = build_roa(
        ee_key=roa_signer, ee_cert=ee_cert, asn=64_999,
        prefixes=[RoaPrefix.parse("63.174.16.0/24")], serial=serial + 1,
        not_before=now, not_after=now + validity,
    )
    publish_forged(ca, {file_name: roa.to_bytes()})
    return roa


def test_an_expired_roa_whose_ee_overclaims_reports_expired():
    world = build_figure2()
    rp = stateful_rp(world)
    publish_roa(world, "wide.roa", ee_resources=ResourceSet.parse("63.0.0.0/8"),
                validity=HOUR)
    assert issue_codes(rp.refresh().run, "wide.roa") == ["overclaim"]
    world.clock.advance(2 * HOUR)
    run = rp.refresh().run
    assert issue_codes(run, "wide.roa") == ["expired"]
    assert run == cold(rp, world.clock.now)


def test_a_revoked_roa_with_a_bad_signature_reports_revoked():
    world = build_figure2()
    rp = stateful_rp(world)
    roa = publish_roa(world, "forged.roa", roa_signer=world.continental.key)
    assert issue_codes(rp.refresh().run, "forged.roa") == ["roa-bad-signature"]
    publish_forged(world.continental, {
        CRL_FILE: crl_bytes(world, [roa.ee_cert.serial])})
    world.clock.advance(1)
    run = rp.refresh().run
    assert issue_codes(run, "forged.roa") == ["revoked"]
    assert run == cold(rp, world.clock.now)


def test_a_bad_ee_signature_keeps_failing_from_its_row(monkeypatch):
    world = build_figure2()
    rp = stateful_rp(world)
    roa = publish_roa(world, "stray.roa", ee_signer=world.sprint.key)
    assert issue_codes(rp.refresh().run, "stray.roa") == ["ee-bad-signature"]
    # Dirty the point with an unrelated change; the row answers again.
    other = publish_roa(world, "other.roa", serial=9_201)
    # Every signature check, of an object or of wire bytes read but not
    # built, asks the verification memo under the digest of what it
    # checks.
    memo = rp.incremental_state.verify_memo
    verified, verify = [], memo.verify
    monkeypatch.setattr(memo, "verify", lambda digest, *checked: (
        verified.append(digest), verify(digest, *checked))[1])
    roa_parses = count_roa_parses(monkeypatch)
    run = rp.refresh().run
    assert issue_codes(run, "stray.roa") == ["ee-bad-signature"]
    assert roa.ee_cert.hash_hex not in verified
    assert roa.hash_hex not in verified
    assert other.hash_hex in verified and other.ee_cert.hash_hex in verified
    assert roa_parses == [world.continental.publication_point.get("other.roa")]
    monkeypatch.undo()
    assert run == cold(rp, world.clock.now)


# -- kept state --------------------------------------------------------------

def test_many_distinct_roas_grow_kept_state_by_rows_not_parses():
    """An authority publishing ROAs by the hundred: the state keeps one
    row per ROA and no parsed ROA; what the object readers allocated and
    the state still holds does not grow with the ROA count."""
    world = build_figure2()
    continental = world.continental
    with continental.deferred_publication():
        for index in range(256):
            continental.issue_roa(
                64_500 + index % 7, f"63.174.{16 + index // 16}."
                f"{index % 16 * 16}/28", ee_key=EE_KEY)
    rp = stateful_rp(world)
    tracemalloc.start()
    try:
        rp.refresh()
        kept = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    state = rp.incremental_state
    roas = sum(len(ca.issued_roas) for ca in world.authorities())
    assert len(state.roa_rows) == roas == 264
    held = [*state.parse_memo._objects._current.values(),
            *state.parse_memo._objects._previous.values()]
    assert len(held) < 20 and not any(isinstance(o, Roa) for o in held)

    def held_by(directory: str) -> int:
        return sum(stat.size for stat in kept.statistics("filename")
                   if f"/repro/{directory}/" in stat.traceback[0].filename)

    # Measured: the object readers' share is ~55 B per ROA (the one
    # manifest's file list) where held parses made it ~735 B, and all
    # that the refresh left allocated ~1.7 KB per ROA against ~3.3 KB.
    assert held_by("rpki") < 100 * roas
    assert sum(stat.size for stat in kept.statistics("filename")) \
        < 2_400 * roas
    # The rows themselves: tuples of integers and VRPs, O(VRPs).
    assert held_by("rp") < 600 * len(rp.vrps)
