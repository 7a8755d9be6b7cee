"""Incremental validation: memo correctness, attack safety, refresh bookkeeping.

The contract under test is absolute: an incremental relying party must
produce a :class:`ValidationRun` equal to a cold validator's on the same
cache — *especially* right after the events an attacker (or misbehaving
authority) controls: whacking, revocation, expiry.  A memo that survives
any of those is a vulnerability, not an optimization.
"""

import gc
import random

import pytest

from repro import memo as memo_module
from repro.crypto import KeyFactory
from repro.modelgen import build_figure2
from repro.repository import FaultInjector, FaultKind, Fetcher
from repro.rp import (
    VRP,
    IncrementalState,
    ParseMemo,
    PathValidator,
    RelyingParty,
    VerificationMemo,
    VrpSet,
)
from repro.rp.incremental import PointResult, time_signature, time_window
from repro.rp import pathval as pathval_module
from repro.rpki import cert_file_name
from repro.rpki import roa as roa_module
from repro.rpki.errors import ObjectFormatError
from repro.simtime import DAY, HOUR, YEAR
from repro.telemetry import MetricsRegistry, default_registry

from ..helpers import all_files
from ..rpki.forge import forge, publish_forged


@pytest.fixture(autouse=True)
def _fresh_metrics():
    default_registry().reset()
    yield
    default_registry().reset()


@pytest.fixture
def world():
    return build_figure2()


def make_rp(world, **kwargs):
    fetcher = Fetcher(world.registry, world.clock,
                      faults=kwargs.pop("faults", None))
    return RelyingParty(world.trust_anchors, fetcher, **kwargs)


def cold_run(rp, world):
    """A from-scratch validation of exactly what *rp* has cached."""
    validator = PathValidator(
        rp.validator.trust_anchors,
        strict_manifests=rp.validator.strict_manifests,
        metrics=MetricsRegistry(),
    )
    now = world.clock.now
    return validator.run(all_files(rp.cache, now), now)


def refresh_costs(rp):
    """Refresh *rp*: its report, the RSA verifications the refresh made
    and the publication points it validated (not replayed)."""
    verify = rp.metrics.get("repro_crypto_verify_total")
    points = rp.metrics.get("repro_incremental_points_total")

    def totals():
        return (verify.value(outcome="accepted")
                + verify.value(outcome="rejected"),
                points.value(outcome="validated"))

    verified, validated = totals()
    report = rp.refresh()
    after = totals()
    return report, after[0] - verified, after[1] - validated


def alive_point_results(ignore=()) -> list:
    """The point results alive after a full collection, but *ignore*."""
    gc.collect()
    ignored = set(map(id, ignore))
    return [obj for obj in gc.get_objects()
            if isinstance(obj, PointResult) and id(obj) not in ignored]


def count_roa_parses(monkeypatch) -> list:
    """From now on, one list entry (its bytes) per ROA read from its
    bytes: by the validator straight to a row, or by building a ``Roa``
    — both go through ``read_roa``."""
    parses: list = []
    read = roa_module.read_roa

    def counted(blob):
        parses.append(blob)
        return read(blob)

    for module in (roa_module, pathval_module):
        monkeypatch.setattr(module, "read_roa", counted)
    return parses


class TestMemoUnits:
    def test_verification_memo_caches_verdicts(self, world):
        anchor = world.trust_anchors[0]
        memo = VerificationMemo()
        assert memo.verify_object(anchor, anchor.subject_key) is True
        assert memo.verify_object(anchor, anchor.subject_key) is True
        assert (memo.hits, memo.misses) == (1, 1)
        assert len(memo) == 1

    def test_verification_memo_caches_rejections(self, world):
        anchor = world.trust_anchors[0]
        wrong_key = world.sprint.certificate.subject_key
        memo = VerificationMemo()
        assert memo.verify_object(anchor, wrong_key) is False
        assert memo.verify_object(anchor, wrong_key) is False
        assert (memo.hits, memo.misses) == (1, 1)

    def test_verification_memo_distinguishes_keys(self, world):
        anchor = world.trust_anchors[0]
        memo = VerificationMemo()
        memo.verify_object(anchor, anchor.subject_key)
        # Same object, different key: separate entry, separate verdict.
        assert memo.verify_object(
            anchor, world.sprint.certificate.subject_key
        ) is False
        assert len(memo) == 2

    def test_verification_memo_bounded(self, world, monkeypatch):
        anchor = world.trust_anchors[0]
        sprint = world.sprint.certificate
        etb = world.etb.certificate
        monkeypatch.setattr(memo_module, "MAX_ENTRIES", 1)
        memo = VerificationMemo()
        memo.verify_object(anchor, anchor.subject_key)
        # Full: the first entry becomes the previous generation...
        memo.verify_object(sprint, anchor.subject_key)
        assert len(memo) == 2
        # ...and is dropped at the next turn-over: two generations of
        # MAX_ENTRIES each is the most the memo ever holds.
        memo.verify_object(etb, anchor.subject_key)
        assert len(memo) == 2

    @staticmethod
    def warm_pass_one_past(world, monkeypatch, short_of: str):
        """Size the memos one entry short of what a cold pass stores — in
        verify verdicts (the largest memo) or in ROA rows — then dirty
        every point (as a clock step across a validity edge would) and
        judge again.  Returns (verdicts, rows, RSA verifications and ROA
        parses of the second pass)."""
        snapshot = {
            ca.sia: ca.publication_point.snapshot()
            for ca in world.authorities()
        }
        now = world.clock.now
        sizing = IncrementalState(metrics=MetricsRegistry())
        PathValidator(world.trust_anchors, incremental=sizing).run(
            snapshot, now
        )
        verdicts, rows = len(sizing.verify_memo), len(sizing.roa_rows)
        assert verdicts == sizing.verify_memo.misses > 20
        assert rows == 8  # Figure 2 publishes eight ROAs
        bound = (verdicts if short_of == "verdicts" else rows) - 1

        monkeypatch.setattr(memo_module, "MAX_ENTRIES", bound)
        state = IncrementalState(metrics=MetricsRegistry())
        validator = PathValidator(world.trust_anchors, incremental=state)
        cold = validator.run(snapshot, now)
        assert state.verify_memo.misses == verdicts
        # Forget the levels, and with them every point result.
        state.levels.clear()
        roa_parses = count_roa_parses(monkeypatch)
        warm = validator.run(snapshot, now)
        assert warm == cold
        assert len(state.roa_rows) <= 2 * bound
        return (verdicts, rows, state.verify_memo.misses - verdicts,
                len(roa_parses))

    def test_warm_pass_one_past_the_bound_still_hits(self, world, monkeypatch):
        # A memo that clears itself wholesale re-verified every object on
        # the second pass; two generations keep all but none — and the
        # rows answer every ROA before a verdict is looked up.
        _, _, verifies, roa_parses = self.warm_pass_one_past(
            world, monkeypatch, "verdicts"
        )
        assert verifies == 0
        assert roa_parses == 0

    def test_rows_one_past_their_bound_still_hit(self, world, monkeypatch):
        verdicts, rows, verifies, roa_parses = self.warm_pass_one_past(
            world, monkeypatch, "rows"
        )
        assert roa_parses == 0
        # Far past their own bound the verdicts re-verify some
        # certificates, CRLs and manifests — never a ROA or its EE.
        assert verifies <= verdicts - 2 * rows

    def test_parse_memo_returns_same_object(self, world):
        data = world.sprint.certificate.to_bytes()
        memo = ParseMemo()
        first = memo.parse(data)
        assert memo.parse(data) is first
        assert (memo.hits, memo.misses) == (1, 1)

    def test_parse_memo_caches_failures(self):
        memo = ParseMemo()
        with pytest.raises(ObjectFormatError):
            memo.parse(b"not an object")
        with pytest.raises(ObjectFormatError):
            memo.parse(b"not an object")
        assert (memo.hits, memo.misses) == (1, 1)

    def test_time_signature_flips_only_at_boundaries(self):
        starts, ends = (10, 20), (20, 30)

        def sig(now):
            return time_signature((starts, ends), now)

        assert sig(15) == sig(19)
        # At a start equals after it (``not_before <= now`` already
        # holds); at an end differs from after it (``now <= not_after``
        # stops holding).
        assert sig(9) != sig(10) == sig(11)
        assert sig(29) == sig(30) != sig(31)
        assert sig(19) != sig(20) != sig(21)
        # Exact: equal signatures iff every predicate the validator
        # evaluates agrees, for any two instants either side of the edges.
        def predicates(now):
            return (tuple(start <= now for start in starts)
                    + tuple(now <= end for end in ends))

        for a in range(5, 36):
            for b in range(5, 36):
                assert (sig(a) == sig(b)) == (predicates(a) == predicates(b))

    @pytest.mark.parametrize("seed", range(6))
    def test_time_window_is_exactly_where_the_signature_holds(self, seed):
        """``[lo, hi)`` from one instant, in both directions, with edges
        shared by a start and an end and with empty sides."""
        rng = random.Random(seed)
        starts = tuple(sorted(rng.sample(range(40), rng.randrange(4))))
        ends = tuple(sorted(rng.sample(range(40), rng.randrange(4))))
        for now in range(-2, 43):
            lo, hi = time_window((starts, ends), now)
            assert lo <= now < hi
            for t in range(-5, 46):
                assert (lo <= t < hi) == (
                    time_signature((starts, ends), t)
                    == time_signature((starts, ends), now)), (now, t)


class TestZeroChurnRefresh:
    def test_warm_refresh_is_equal_and_verification_free(self, world):
        rp = make_rp(world)
        first = rp.refresh()
        verify = rp.metrics.get("repro_crypto_verify_total")
        before = (verify.value(outcome="accepted")
                  + verify.value(outcome="rejected"))
        # The cold refresh must have been observed by the counter, or the
        # zero-delta assertion below would pass vacuously.
        assert before > 0
        second = rp.refresh()
        after = (verify.value(outcome="accepted")
                 + verify.value(outcome="rejected"))
        assert second.run == first.run
        assert after - before == 0
        assert second.run == cold_run(rp, world)

    def test_points_reported_reused(self, world):
        rp = make_rp(world)
        rp.refresh()
        points = rp.metrics.get("repro_incremental_points_total")
        validated_cold = points.value(outcome="validated")
        rp.refresh()
        assert points.value(outcome="validated") == validated_cold
        assert points.value(outcome="reused") > 0

    def test_a_validator_built_without_a_state_keeps_its_own(self, world):
        # ``incremental=None`` means a fresh state, never none: the first
        # run is cold, the second replays it.
        snapshot = {ca.sia: ca.publication_point.snapshot()
                    for ca in world.authorities()}
        now = world.clock.now
        validator = PathValidator(world.trust_anchors)
        assert isinstance(validator.incremental, IncrementalState)
        verify = validator.metrics.get("repro_crypto_verify_total")

        def verifies() -> float:
            return (verify.value(outcome="accepted")
                    + verify.value(outcome="rejected"))

        before = verifies()
        first = validator.run(snapshot, now)
        cold = verifies() - before
        second = validator.run(snapshot, now)
        assert cold > 20
        assert verifies() - before == cold
        assert second == first


class TestOneJudgementPerManifest:
    """Choosing a point's copy judges its manifest; validating the point
    reuses that judgement instead of parsing and verifying it again."""

    @staticmethod
    def refresh_counting(rp, monkeypatch):
        """Refresh *rp*: its report and, per validated point, its
        ``verify_count`` and the verification-memo misses and hits its
        validation made."""
        memo = rp.incremental_state.verify_memo
        points = []
        validate = PathValidator._validate_point

        def counted(self, *args):
            misses, hits = memo.misses, memo.hits
            result = validate(self, *args)
            points.append((result.verify_count, memo.misses - misses,
                           memo.hits - hits))
            return result

        monkeypatch.setattr(PathValidator, "_validate_point", counted)
        report = rp.refresh()
        monkeypatch.setattr(PathValidator, "_validate_point", validate)
        return report, points

    def test_cold_refresh_verifies_each_signature_once(
        self, world, monkeypatch
    ):
        rp = make_rp(world)
        _, points = self.refresh_counting(rp, monkeypatch)
        memo = rp.incremental_state.verify_memo
        assert points and memo.misses > 0
        assert memo.hits == 0
        assert all(count == misses for count, misses, _ in points), points
        counter = rp.metrics.get("repro_incremental_verify_memo_total")
        assert counter.value(result="hit") == 0
        # A replay skips exactly the verifications the points made.
        world.clock.advance(1)
        rp.refresh()
        skipped = rp.metrics.get(
            "repro_incremental_skipped_verifications_total")
        assert skipped.value() == sum(count for count, _, _ in points)

    def test_a_rejected_primary_costs_only_its_own_manifest(
        self, world, monkeypatch
    ):
        sprint_server = world.registry.by_host("sprint.example")
        mirror_uri = "rsync://sprint.example/mirror/continental/"
        world.continental.enable_mirror(
            mirror_uri, sprint_server.mount(mirror_uri))
        faults = FaultInjector(seed=2)
        faults.schedule(
            FaultKind.CORRUPT, "rsync://continental.example/repo/",
            file_name=world.target20_name,
        )
        rp = make_rp(world, faults=faults)
        report, points = self.refresh_counting(rp, monkeypatch)
        assert report.run.has_issue("using-mirror")
        assert all(count == misses + hits
                   for count, misses, hits in points), points
        # The one lookup found in the memo is the mirror's manifest,
        # byte for byte the primary's: judged under both copies, verified
        # once.
        assert rp.incremental_state.verify_memo.hits == 1


class TestAttackSafety:
    """After every adversarial event, warm output == cold output."""

    def assert_matches_cold(self, rp, world):
        report = rp.refresh()
        assert report.run == cold_run(rp, world)
        return report

    def test_roa_whack_propagates(self, world):
        rp = make_rp(world)
        rp.refresh()
        whacked = world.continental.roa_named(world.target20_name)
        world.continental.revoke_roa(world.target20_name)
        report = self.assert_matches_cold(rp, world)
        for prefix in whacked.prefixes:
            assert VRP(prefix=prefix.prefix,
                       max_length=prefix.effective_max_length,
                       asn=whacked.asn) not in report.vrps

    def test_roa_shrink_propagates(self, world):
        rp = make_rp(world)
        baseline = rp.refresh()
        old = world.continental.roa_named(world.target22_name)
        world.continental.revoke_roa(world.target22_name)
        world.continental.issue_roa(old.asn, "63.174.16.0/24",
                                    name=world.target22_name)
        report = self.assert_matches_cold(rp, world)
        assert report.run != baseline.run
        assert VRP.parse("63.174.16.0/24", old.asn) in report.vrps
        assert VRP.parse("63.174.16.0/22", old.asn) not in report.vrps

    def test_crl_revocation_kills_subtree(self, world):
        rp = make_rp(world)
        rp.refresh()
        world.sprint.revoke_cert(world.continental.certificate)
        report = self.assert_matches_cold(rp, world)
        # All five Continental ROAs gone with the revoked RC.
        assert len(report.vrps) == 3

    def test_republished_revoked_cert_rejected_via_crl(self, world):
        rp = make_rp(world)
        rp.refresh()
        old_cert = world.continental.certificate
        world.sprint.revoke_cert(old_cert)
        # A misbehaving repository re-serves the revoked file; only the
        # (changed) CRL stands between it and acceptance.
        from repro.rpki import cert_file_name
        world.sprint.publication_point.put(
            cert_file_name(old_cert), old_cert.to_bytes()
        )
        report = self.assert_matches_cold(rp, world)
        assert report.run.has_issue("revoked")

    def test_a_point_back_in_reach_after_a_snapshot_run_is_read(self, world):
        # A snapshot handed to the relying party's own validator rewrites
        # what its walks read.  The next refresh cannot reach Continental
        # (its certificate is gone from Sprint's point); the one after
        # reaches it again, its point unchanged all along: its copy must
        # be read, not taken for missing.
        from repro.rpki import cert_file_name
        rp = make_rp(world)
        rp.refresh()
        now = world.clock.now
        rp.validator.run(all_files(rp.cache, now), now)
        sprint = world.sprint.publication_point
        name = cert_file_name(world.continental.certificate)
        blob = sprint.get(name)
        sprint.delete(name)
        world.clock.advance(1)
        gone = self.assert_matches_cold(rp, world)
        assert world.continental.certificate not in gone.run.validated_cas
        sprint.put(name, blob)
        world.clock.advance(1)
        back, verifies, validated = refresh_costs(rp)
        assert back.run == cold_run(rp, world)
        assert world.continental.certificate in back.run.validated_cas
        assert len(back.vrps) == 8
        # Sprint's point moved back, and Continental's is judged again
        # through the memos: the last walk kept no result for it.
        assert (verifies, validated) == (0, 2)

    def test_a_ca_reissued_one_level_deeper_is_judged_from_the_memos(
        self, world
    ):
        # ETB certifies Continental's key too, over ETB's own resources
        # (so none of Continental's ROAs is covered under it).  While
        # Sprint's certificate stands, the key is judged one level up and
        # ETB's is only listed; once Sprint's goes, Continental's point
        # is judged one level deeper, under the new certificate.
        etb = world.etb.certificate.payload
        payload = dict(
            world.continental.certificate.payload, serial=9_997,
            issuer_key_id=etb["subject_key_id"],
            crldp="rsync://etb.example/repo/ca.crl",
            ip_resources=etb["ip_resources"],
        )
        publish_forged(world.etb, {"deeper.cer": forge(payload,
                                                       world.etb.key)})
        rp = make_rp(world)
        first = rp.refresh()
        serials = [cert.serial for cert in first.run.validated_cas]
        assert world.continental.certificate in first.run.validated_cas
        assert 9_997 in serials and len(first.vrps) == 8
        world.sprint.publication_point.delete(
            cert_file_name(world.continental.certificate))
        world.clock.advance(1)
        deeper, verifies, validated = refresh_costs(rp)
        assert deeper.run == cold_run(rp, world)
        assert world.continental.certificate not in deeper.run.validated_cas
        assert 9_997 in [cert.serial for cert in deeper.run.validated_cas]
        assert len(deeper.vrps) == 3
        # Sprint's point moved; Continental's, unchanged, is judged again
        # under its new issuer from the verdicts the first refresh left.
        assert (verifies, validated) == (0, 2)

    def test_retired_child_keys_leave_no_kept_results(self, world):
        # An authority that certifies a fresh-key child CA on every
        # refresh, dropping the last one, grows the relying party's kept
        # state by nothing: the results kept are the last walk's, one per
        # CA it judged, not one per key the authority ever certified.
        elsewhere = alive_point_results()
        rp = make_rp(world)
        keys = KeyFactory(seed=667)
        for serial in range(9_000, 9_020):
            key = keys.next_keypair()
            payload = dict(
                world.continental.certificate.payload, serial=serial,
                subject="rotated",
                subject_key={"n": key.public.modulus,
                             "e": key.public.exponent},
                subject_key_id=key.key_id,
                not_after=world.clock.now + YEAR,
                sia="rsync://arin.example/repo/", sia_mirrors=[],
            )
            # One file name: each child replaces the one before it.
            publish_forged(world.sprint,
                           {"rotated.cer": forge(payload, world.sprint.key)})
            world.clock.advance(1)
            report = rp.refresh()
            assert "rotated" in [c.subject for c in report.run.validated_cas]
        kept = len(alive_point_results(elsewhere))
        assert 0 < kept <= len(report.run.validated_cas) == 5
        assert report.run == cold_run(rp, world)

    def test_clock_advance_past_expiry(self, world):
        rp = make_rp(world)
        rp.refresh()
        world.clock.advance(91 * DAY)  # past every 90-day ROA window
        report = self.assert_matches_cold(rp, world)
        assert len(report.vrps) == 0
        assert report.run.has_issue("expired")

    def test_the_first_instant_past_an_anchors_not_after_is_ta_expired(
            self, world):
        """The anchors' verdicts are kept while the clock stays inside
        their window, and judged again the first second it leaves."""
        rp = make_rp(world)
        rp.refresh()
        kept = rp.incremental_state.anchors[0]
        anchor = world.trust_anchors[0]
        world.clock.at_least(anchor.not_after)
        held = self.assert_matches_cold(rp, world)
        assert rp.incremental_state.anchors[0] is kept
        assert not held.run.has_issue("ta-expired")
        world.clock.advance(1)
        report = self.assert_matches_cold(rp, world)
        assert rp.incremental_state.anchors[0] is not kept
        assert report.run.has_issue("ta-expired")
        assert len(rp.vrps) == 0

    def test_clock_advance_past_manifest_window(self, world):
        rp = make_rp(world)
        rp.refresh()
        world.clock.advance(2 * DAY)  # beyond the 1-day manifest window
        report = self.assert_matches_cold(rp, world)
        assert report.run.has_issue("manifest-stale")

    def test_small_clock_advance_still_reuses(self, world):
        rp = make_rp(world)
        # Judged at the objects' shared publish instant (their not_before),
        # replayed the next second: a start once reached stays reached.
        first = rp.refresh()
        points = rp.metrics.get("repro_incremental_points_total")
        judged = len(first.run.validated_cas)
        assert points.value(outcome="validated") == judged
        assert points.value(outcome="reused") == 0
        world.clock.advance(1)  # no validity edge crossed
        report = self.assert_matches_cold(rp, world)
        assert points.value(outcome="reused") == judged
        assert points.value(outcome="validated") == judged
        assert len(report.vrps) == 8

    def test_renewal_after_expiry(self, world):
        rp = make_rp(world)
        rp.refresh()
        world.clock.advance(91 * DAY)
        rp.refresh()
        for ca in world.authorities():
            for name in list(ca.issued_roas):
                ca.renew_roa(name)
        report = self.assert_matches_cold(rp, world)
        assert len(report.vrps) == 8

    def test_strictness_policy_change_invalidates(self, world):
        faults = FaultInjector(seed=1)
        faults.schedule(
            FaultKind.CORRUPT,
            "rsync://continental.example/repo/",
            file_name=world.target20_name,
        )
        rp = make_rp(world, faults=faults)
        rp.refresh()
        files = all_files(rp.cache, world.clock.now)
        now = world.clock.now
        # Re-point the same memo state at a validator with the opposite
        # manifest policy: every cached point must be recomputed, and the
        # corrupt point discarded whole.
        strict = PathValidator(
            world.trust_anchors, strict_manifests=True,
            incremental=rp.incremental_state,
        )
        warm = strict.run(files, now)
        cold = PathValidator(world.trust_anchors, strict_manifests=True)
        assert warm == cold.run(files, now)
        assert warm.has_issue("point-discarded")
        invalidations = rp.metrics.get(
            "repro_incremental_invalidations_total"
        )
        assert invalidations.value(reason="policy") > 0


class TestRefreshSkippedBookkeeping:
    """Regression: `skipped` is computed once — sorted and duplicate-free."""

    def test_budget_trip_mid_round(self, world):
        faults = FaultInjector()
        faults.schedule(
            FaultKind.DELAY,
            "rsync://continental.example/repo/",
            delay_seconds=60,
        )
        rp = make_rp(world, faults=faults, fetch_budget=10)
        report = rp.refresh()
        # Continental's delayed fetch ate the budget mid-round; ETB (same
        # round, later in sort order) was skipped — exactly once, even
        # though it is also still pending after the final validation.
        assert report.skipped == ["rsync://etb.example/repo/"]
        assert report.skipped == sorted(set(report.skipped))
        fetched = {f.uri for f in report.fetches}
        assert not fetched & set(report.skipped)
        assert set(report.deferred).isdisjoint(report.skipped)

    def test_no_budget_no_skips(self, world):
        rp = make_rp(world)
        report = rp.refresh()
        assert report.skipped == []
        assert set(report.deferred).isdisjoint(report.skipped)


class TestVrpSetDeltas:
    def build(self, *texts_asns):
        return VrpSet(VRP.parse(t, a) for t, a in texts_asns)

    def test_added_and_removed(self):
        before = self.build(("10.0.0.0/8", 1), ("10.1.0.0/16", 2))
        after = self.build(("10.0.0.0/8", 1), ("10.2.0.0/16", 3))
        new, old = after.as_frozenset(), before.as_frozenset()
        assert new - old == {VRP.parse("10.2.0.0/16", 3)}
        assert old - new == {VRP.parse("10.1.0.0/16", 2)}
        assert not old - old

    def test_difference_matches_legacy_semantics(self):
        a = self.build(("10.0.0.0/8", 1), ("10.1.0.0/16", 2), ("10.2.0.0/16", 3))
        b = self.build(("10.1.0.0/16", 2))
        assert sorted(a.as_frozenset() - b.as_frozenset()) == [
            vrp for vrp in a if vrp not in b
        ]

    def test_cached_views_invalidate_on_add(self):
        s = self.build(("10.1.0.0/16", 2))
        assert list(s) == [VRP.parse("10.1.0.0/16", 2)]
        frozen_before = s.as_frozenset()
        s.add(VRP.parse("10.0.0.0/8", 1))
        # Sorted view and frozenset both reflect the mutation.
        assert list(s) == [VRP.parse("10.0.0.0/8", 1),
                           VRP.parse("10.1.0.0/16", 2)]
        assert s.as_frozenset() == frozen_before | {VRP.parse("10.0.0.0/8", 1)}

    def test_duplicate_add_keeps_cache(self):
        s = self.build(("10.1.0.0/16", 2))
        view = s._sorted_view()
        s.add(VRP.parse("10.1.0.0/16", 2))  # a second assertion, no new member
        assert s._sorted_view() is view

    def test_incremental_state_exported_from_facade(self):
        import repro

        assert repro.IncrementalState is IncrementalState
