"""Experiment ``incremental``: steady-state revalidation cost vs churn.

The relying party must keep its cache complete and current (Side Effect
6), which in practice means revalidating it on every refresh.  This
benchmark pins the property that makes that sustainable at deployment
scale (the ROADMAP north star): with :class:`repro.rp.IncrementalState`
attached, a refresh's *cryptographic* cost is proportional to what
changed, not to how much is cached.

Three claims are asserted, not just timed:

1. **Zero churn, zero verifications.**  A warm refresh over an unchanged
   repository performs exactly 0 RSA signature verifications (measured by
   the ``repro_crypto_verify_total`` counter, which only the real modular
   exponentiation increments) — and still produces a ``ValidationRun``
   equal to the cold run's.
2. **Cost tracks churn, not size.**  After renewing a single ROA, the
   warm refresh re-verifies only the affected publication point — the
   same small constant at 120-ROA and 300-ROA deployments, while the
   cold cost more than doubles between them.
3. **The table is edited, not rebuilt.**  At ``internet-small`` (10^4
   VRPs) a one-ROA refresh plus the first answer builds no ``VrpSet``,
   edits the prefix index no more often than the re-judged point has VRPs,
   re-hashes at most two fingerprint buckets and sorts nothing the size
   of the table; it re-judges one publication point and reads one ROA —
   the new one — from bytes, the rest of that point's ROAs from their
   rows.  An idle refresh a tick later edits nothing, re-judges no point,
   looks no point up, re-assembles no run and verifies no signature.  Counts, so a noisy box cannot blur them
   (``BENCH_incremental.json``).
4. **A refresh walks only what changed.**  The one-ROA refresh copies
   one publication point's files from its repository, digests one and
   is delivered one point's bytes; the idle refresh copies, digests and
   is delivered nothing — the same counts on a world a quarter as wide,
   so per-refresh work tracks changed points, not total points.
"""

import builtins
import dataclasses
import json

import pytest

from conftest import write_artifact

from repro import default_registry
from repro.api import ApiConfig, QueryService
from repro.modelgen import INTERNET_SCALES, DeploymentConfig, build_deployment
from repro.repository import Fetcher, HostedPublicationPoint
from repro.repository import cache as repository_cache
from repro.resources import PrefixMap
from repro.rp import RelyingParty, VrpSet
from repro.rp import pathval, walk
from repro.rp.vrp import _Fingerprint
from repro.rpki import roa as roa_module
from repro.simtime import HOUR
from repro.telemetry import MetricsRegistry

SCALES = {
    "medium": DeploymentConfig(isps_per_rir=6, customers_per_isp=2, seed=21),
    "large": DeploymentConfig(isps_per_rir=12, customers_per_isp=3, seed=21),
}

# scale -> (roa_count, cold_verifies, churn_verifies)
_RESULTS: dict[str, tuple[int, float, float]] = {}


def _verify_total() -> float:
    counter = default_registry().get("repro_crypto_verify_total")
    return (counter.value(outcome="accepted")
            + counter.value(outcome="rejected"))


def _incremental_rp(world) -> RelyingParty:
    return RelyingParty(
        world.trust_anchors,
        Fetcher(world.registry, world.clock),
    )


def test_zero_churn_refresh_verifies_nothing(benchmark):
    world = build_deployment(SCALES["medium"])
    rp = _incremental_rp(world)
    cold = rp.refresh()

    before = _verify_total()
    warm = rp.refresh()
    assert _verify_total() - before == 0, (
        "a zero-churn warm refresh must skip every RSA verification"
    )
    assert warm.run == cold.run, (
        "memoization must not change validation output"
    )

    # Timed portion: the steady-state refresh (fetch sweep + replayed
    # validation).  Every benchmark round is warm and churn-free.
    report = benchmark(rp.refresh)
    assert report.run == cold.run
    reused = rp.metrics.get("repro_incremental_points_total")
    assert reused.value(outcome="reused") > 0


@pytest.mark.parametrize("scale", list(SCALES))
def test_warm_cost_tracks_churn_not_size(benchmark, scale):
    world = build_deployment(SCALES[scale])
    rp = _incremental_rp(world)
    before = _verify_total()
    rp.refresh()
    cold_verifies = _verify_total() - before

    churned_ca = next(ca for ca in world.authorities() if ca.issued_roas)
    roa_name = next(iter(churned_ca.issued_roas))

    churned_ca.renew_roa(roa_name)
    before = _verify_total()
    rp.refresh()
    churn_verifies = _verify_total() - before
    assert 0 < churn_verifies < cold_verifies * 0.05, (
        "renewing one ROA must re-verify only its publication point"
    )
    _RESULTS[scale] = (world.roa_count(), cold_verifies, churn_verifies)

    def churn_and_refresh():
        churned_ca.renew_roa(roa_name)
        return rp.refresh()

    report = benchmark(churn_and_refresh)
    assert report.run.errors() == []

    if scale == "large" and "medium" in _RESULTS:
        m_roas, m_cold, m_churn = _RESULTS["medium"]
        l_roas, l_cold, l_churn = _RESULTS["large"]
        # Cold work grows with the deployment; churn work does not.
        assert l_cold / m_cold >= 2.0
        assert l_churn <= m_churn * 1.5
        lines = [
            "scale    ROAs  cold-verifies  one-roa-churn-verifies",
            f"medium   {m_roas:>4}  {int(m_cold):>13}  {int(m_churn):>22}",
            f"large    {l_roas:>4}  {int(l_cold):>13}  {int(l_churn):>22}",
            "",
            "zero churn -> zero verifications; warm == cold ValidationRun",
            "(timings in the pytest-benchmark table)",
        ]
        write_artifact("incremental_churn.txt", "\n".join(lines))


class _Calls:
    """Counts calls of the table-sized operations while patched in."""

    def __init__(self, patch):
        self.vrpset_builds = self.trie_inserts = self.trie_removes = 0
        self.bucket_digests = self.fingerprint_edits = 0
        self.largest_sort = self.roas_parsed = 0
        self.point_copies = self.point_digests = 0
        self.point_lookups = self.run_assemblies = 0
        self._count(patch, HostedPublicationPoint, "snapshot", "point_copies")
        self._count(patch, walk.ValidationWalk, "_lookup", "point_lookups")
        self._count(patch, walk, "_Assembled", "run_assemblies")
        self._count(patch, repository_cache, "point_digest", "point_digests")
        self._count(patch, pathval, "point_digest", "point_digests")
        self._count(patch, VrpSet, "__init__", "vrpset_builds")
        # A ROA is read from its bytes by read_roa alone: straight to its
        # row by the validator, or into a Roa object.
        for module in (roa_module, pathval):
            self._count(patch, module, "read_roa", "roas_parsed")
        self._count(patch, PrefixMap, "get_or_insert", "trie_inserts")
        self._count(patch, PrefixMap, "remove", "trie_removes")
        self._count(patch, _Fingerprint, "_bucket_digest", "bucket_digests")
        self._count(patch, _Fingerprint, "edit", "fingerprint_edits")
        real_sorted = builtins.sorted

        def counted_sorted(iterable, **kwargs):
            items = list(iterable)
            self.largest_sort = max(self.largest_sort, len(items))
            return real_sorted(items, **kwargs)

        patch.setattr(builtins, "sorted", counted_sorted)

    def _count(self, patch, owner, method: str, counter: str) -> None:
        inner = getattr(owner, method)

        def counted(*args, **kwargs):
            setattr(self, counter, getattr(self, counter) + 1)
            return inner(*args, **kwargs)

        patch.setattr(owner, method, counted)

    @property
    def index_edits(self) -> int:
        return self.trie_inserts + self.trie_removes + self.fingerprint_edits


def _stateful_rp(world) -> RelyingParty:
    metrics = MetricsRegistry()
    return RelyingParty(
        world.trust_anchors,
        Fetcher(world.registry, world.clock, metrics=metrics),
        metrics=metrics,
    )


def _fetched_bytes(rp) -> float:
    return rp.metrics.get("repro_fetch_bytes_total").value()


def _refresh_work(rp, calls: "_Calls", before: float,
                  points_before: float) -> tuple:
    """(point copies, point digests, bytes delivered, points validated)
    of one refresh, from its counters' values *before* it."""
    points = rp.metrics.get("repro_incremental_points_total")
    return (calls.point_copies, calls.point_digests,
            _fetched_bytes(rp) - before,
            points.value(outcome="validated") - points_before)


def _point_bytes(ca) -> int:
    return sum(map(len, ca.publication_point.snapshot().values()))


def _handoff_then_idle(world, monkeypatch) -> tuple[tuple, tuple]:
    """The refresh work of one new ROA, then of an idle tick."""
    rp = _stateful_rp(world)
    rp.refresh()
    points = rp.metrics.get("repro_incremental_points_total")
    donor = next(ca for ca in world.authorities() if ca.issued_roas)
    prefix = donor.issued_roas[sorted(donor.issued_roas)[0]].prefixes[0].prefix
    work = []
    for change in (lambda: donor.issue_roa(65200, str(prefix)), lambda: None):
        world.clock.advance(HOUR)
        change()
        before, validated = _fetched_bytes(rp), points.value(outcome="validated")
        with monkeypatch.context() as patch:
            calls = _Calls(patch)
            rp.refresh()
        work.append(_refresh_work(rp, calls, before, validated))
    assert work[0][2] == _point_bytes(donor)
    return work[0][:2] + work[0][3:], work[1]


def test_one_roa_refresh_edits_the_table_in_place(monkeypatch):
    """Claims 3 and 4 of the module docstring, at 10^4 VRPs."""
    world = build_deployment(INTERNET_SCALES["internet-small"])
    rp = _stateful_rp(world)
    metrics = rp.metrics
    rp.refresh()
    service = QueryService(rp, config=ApiConfig(rate_limit=None),
                           metrics=metrics)
    table = len(rp.vrps)
    donor = next(ca for ca in world.authorities() if ca.issued_roas)
    prefix = donor.issued_roas[sorted(donor.issued_roas)[0]].prefixes[0].prefix
    # Every lazy view the serving side keeps is built before counting.
    assert service.validate_route(str(prefix), 65200).payload.state.value \
        == "invalid"
    service.lookup_asn(65200)

    points = metrics.get("repro_incremental_points_total")

    def validated() -> float:
        return points.value(outcome="validated")

    world.clock.advance(HOUR)
    donor.issue_roa(65200, str(prefix), name="handoff.roa")
    point_vrps = sum(len(roa.prefixes) for roa in donor.issued_roas.values())
    before, delivered = validated(), _fetched_bytes(rp)
    with monkeypatch.context() as patch:
        churn = _Calls(patch)
        report = rp.refresh()
        answer = service.validate_route(str(prefix), 65200)
    churn_points = validated() - before
    churn_work = _refresh_work(rp, churn, delivered, before)
    assert answer.payload.state.value == "valid"
    assert len(report.announced) == 1 and not report.withdrawn
    assert service.lookup_asn(65200).payload == report.announced
    assert churn.vrpset_builds == 0
    assert churn.trie_inserts <= point_vrps
    assert churn.bucket_digests <= 2
    assert churn.largest_sort < table // 10
    # One point re-judged, and of its ROAs only the new one read from
    # bytes: every other one is judged again from its row.
    assert churn_points == 1
    assert churn.roas_parsed == 1
    # The one changed point is the one copied, digested and delivered.
    assert churn.point_copies == churn.point_digests == 1
    assert churn_work[2] == _point_bytes(donor)

    # A tick after the publish instant: the re-judged point's new starts
    # were reached when it was judged, so it is replayed like the rest.
    world.clock.advance(HOUR)
    before, verifies, delivered = validated(), _verify_total(), _fetched_bytes(rp)
    with monkeypatch.context() as patch:
        idle = _Calls(patch)
        report = rp.refresh()
        service.validate_route(str(prefix), 65200)
    idle_points, idle_verifies = validated() - before, _verify_total() - verifies
    idle_work = _refresh_work(rp, idle, delivered, before)
    assert not report.announced and not report.withdrawn
    assert idle.index_edits == 0 and idle.vrpset_builds == 0
    assert idle_points == 0
    assert idle_verifies == 0
    assert idle_work == (0, 0, 0, 0)
    # Nothing moved, so no point is looked up and no run re-assembled.
    assert idle.point_lookups == 0 and idle.run_assemblies == 0
    # A quarter of the width (55 points for 205): the same work.
    narrow = build_deployment(dataclasses.replace(
        INTERNET_SCALES["internet-small"], isps_per_rir=10))
    assert _handoff_then_idle(narrow, monkeypatch) == (
        churn_work[:2] + churn_work[3:], idle_work)

    write_artifact("BENCH_incremental.json", json.dumps({
        "experiment": "incremental",
        "pins": {
            "handoff_vrpset_builds": {
                "measured": churn.vrpset_builds, "bound": 0, "op": "==",
            },
            "handoff_trie_inserts": {
                "measured": churn.trie_inserts, "bound": point_vrps,
                "op": "<=",
            },
            "handoff_bucket_digests": {
                "measured": churn.bucket_digests, "bound": 2, "op": "<=",
            },
            "handoff_largest_sort": {
                "measured": churn.largest_sort, "bound": table // 10,
                "op": "<=",
            },
            "idle_index_edits": {
                "measured": idle.index_edits, "bound": 0, "op": "==",
            },
            "handoff_points_validated": {
                "measured": int(churn_points), "bound": 1, "op": "==",
            },
            "handoff_roas_parsed": {
                "measured": churn.roas_parsed, "bound": 1, "op": "==",
            },
            "idle_points_validated": {
                "measured": int(idle_points), "bound": 0, "op": "==",
            },
            "idle_point_lookups": {
                "measured": idle.point_lookups, "bound": 0, "op": "==",
            },
            "idle_run_assemblies": {
                "measured": idle.run_assemblies, "bound": 0, "op": "==",
            },
            "idle_rsa_verifies": {
                "measured": int(idle_verifies), "bound": 0, "op": "==",
            },
            "handoff_point_copies": {
                "measured": churn.point_copies, "bound": 1, "op": "==",
            },
            "idle_point_copies": {
                "measured": idle.point_copies, "bound": 0, "op": "==",
            },
            "idle_point_digests": {
                "measured": idle.point_digests, "bound": 0, "op": "==",
            },
            "idle_fetch_bytes": {
                "measured": int(idle_work[2]), "bound": 0, "op": "==",
            },
        },
        "handoff": {
            "scale": "internet-small",
            "vrps": table,
            "rejudged_point_vrps": point_vrps,
            "rejudged_point_bytes": int(churn_work[2]),
            "trie_removes": churn.trie_removes,
            "idle_largest_sort": idle.largest_sort,
        },
    }, indent=2) + "\n")
