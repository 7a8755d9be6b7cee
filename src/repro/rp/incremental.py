"""Incremental validation: content-addressed memos and dirty-point reuse.

A relying party that keeps its cache complete (the property Side Effect 6
of the paper turns on) must revalidate it on every refresh — and a naive
validator pays for the *whole* repository every time: every object is
re-parsed and every RSA signature re-checked even when not a single byte
changed since the last epoch.  Production relying parties survive at
deployment scale because their steady-state cost is proportional to
*churn*, not repository size.  This module gives the reproduction the
same property, without changing a single validation verdict:

- :class:`VerificationMemo` — signature verification is a pure function
  of ``(key, message, signature)``.  Objects are content-addressed (their
  ``hash_hex`` covers payload *and* signature), so the verdict for
  ``(object hash, key fingerprint)`` can be cached across refreshes; a
  hit skips the modular exponentiation entirely.
- :class:`ParseMemo` — parsing is a pure function of the bytes.  Cached
  bytes that did not change parse to the same (immutable) object, so the
  memo returns the previously built object; parse *failures* are cached
  too (corrupt bytes stay corrupt).  ROAs are the exception: see rows.
- :class:`RoaRow` — everything judging a ROA reads except ``now`` and
  the CRL is a pure function of the ROA's bytes and its issuing
  certificate, so it is kept under ``(file SHA-256, issuer hash)`` in
  place of the parsed ROA.  A re-judged point judges an unchanged ROA
  from its row — no parse, no verification — and kept state is O(VRPs),
  not O(object trees).
- :class:`PointResult` — the per-publication-point unit of reuse.  A
  point's validation outcome is a pure function of (issuing certificate,
  strictness policy, the bytes of every cached copy, and which side of
  each time boundary ``now`` falls on), and the validator keeps it with
  exactly those dependencies.
- :class:`Level` — what a walk judged at one depth, and the only place a
  point result is kept: :class:`IncrementalState` holds the last
  finished walk's levels.  A later walk that reaches the depth from the
  same certificates judges again only the points a changed URI or the
  clock touched, so an idle refresh does no per-point work after its fetch
  round; from any other frontier it checks each point against the
  result the level holds for its key — one check,
  :meth:`IncrementalState.lookup` — and replays it verbatim when nothing
  it depends on moved, or recomputes it (a *dirty* point).  A CA no
  walk judges any more leaves no result behind.

Invalidation rules — the attack-safety contract
-----------------------------------------------

A cached point result is reused only when **all** of the following hold,
otherwise it is discarded and the point revalidated from bytes:

- ``content``: every cached copy (primary and mirrors) of the point has
  the same content digest as when the result was computed, and the same
  set of copies is present.  A whacked, shrunk, replaced, or newly
  published object — and any CRL or manifest change, which live in the
  same point — therefore always dirties the point.
- ``issuer``: the issuing CA certificate is byte-identical.  A shrunk or
  reissued parent dirties every point it issues for.
- ``time``: ``now`` is on the same side of every validity boundary
  (``not_before`` / ``not_after`` of each parseable object, including
  embedded EE certificates; CRL and manifest ``next_update``) that the
  original computation could have observed — exactly, see
  :func:`time_signature`, whose constant stretch around the judging
  instant is the half-open :func:`time_window` kept with the result.
  Clock movement past any start, expiry or staleness edge dirties the
  point; movement that crosses none does not.
- ``policy``: the manifest-strictness policy is unchanged.

Because reuse replays the exact issues, certificates, ROAs, and VRPs the
cold computation produced — and no issue text names the instant it was
judged at — a warm run is byte-for-byte identical to a cold
:meth:`repro.rp.PathValidator.run` on the same cache: the property
``tests/rp/test_incremental.py`` enforces after whacking, revocation,
and expiry events, ``tests/rp/test_roa_rows.py`` at every boundary
``b - 1``, ``b``, ``b + 1``, and ``benchmarks/test_bench_incremental.py``
pins the zero-churn/zero-verification headline claim.  The cold verdicts
themselves are pinned to an independent reference validator
(``tests/rp/reference_validator.py``).

Memos are bounded (:data:`repro.memo.MAX_ENTRIES` per generation, two
generations: see :class:`repro.memo.GenerationMemo`), so a working set
past the bound loses its oldest entries, not everything.  All decisions are
instrumented; see docs/performance.md for how to read the metrics.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import inf
from operator import attrgetter, is_, itemgetter
from typing import NamedTuple

from ..crypto import RsaPublicKey, sha256_hex
from ..memo import GenerationMemo
from ..rpki.crl import Crl
from ..rpki.errors import ObjectFormatError
from ..rpki.ghostbusters import GhostbustersRecord
from ..rpki.objects import SignedObject, verify_wire
from ..rpki.parse import parse_object
from ..rpki.roa import Roa
from ..telemetry import MetricsRegistry, default_registry
from .vrp import VRP, VrpSet

__all__ = [
    "IncrementalState",
    "ParseMemo",
    "PointResult",
    "RoaRow",
    "VerificationMemo",
    "time_signature",
    "time_window",
]

# Blobs above this size bypass the parse memo entirely: a decoder-bomb
# payload (repository/faults.nested_bomb) must not pin memory in — or
# poison — a cache that outlives the refresh that fetched it.  Far above
# any legitimate object in the simulation (hundreds of bytes), below the
# default bomb (~20 KiB).
DEFAULT_MAX_OBJECT_BYTES = 16 << 10


def time_signature(
    boundaries: tuple[tuple[int, ...], tuple[int, ...]], now: int
) -> tuple[int, int]:
    """Which side of every boundary *now* falls on, as two counts.

    *boundaries* is ``(starts, ends)``, each sorted: the ``not_before``
    values and the ``not_after`` values (``next_update`` aliases
    ``not_after``).  The validator evaluates exactly ``start <= now``,
    ``now <= end`` and ``end < now``, so the starts that hold are the
    first ``bisect_right(starts, now)`` and the ends passed are the
    first ``bisect_left(ends, now)``: two instants with equal counts make
    every predicate evaluate identically, and the cached verdicts still
    hold.  Exact for any ordered ``now``, in both directions (clocks here
    can be rewound).
    """
    starts, ends = boundaries
    return (bisect_right(starts, now), bisect_left(ends, now))


def time_window(
    boundaries: tuple[tuple[int, ...], tuple[int, ...]], now: int
) -> tuple[float, float]:
    """The instants whose :func:`time_signature` equals *now*'s: ``[lo, hi)``.

    With ``(i, j)`` the signature at *now*, ``bisect_right(starts, t)``
    stays ``i`` exactly for ``starts[i-1] <= t < starts[i]``, and
    ``bisect_left(ends, t)`` stays ``j`` exactly for ``ends[j-1] < t <=
    ends[j]``, which on integer instants is ``ends[j-1] + 1 <= t <
    ends[j] + 1``.  The window is the intersection of the two (a missing
    neighbour is unbounded), so ``lo <= t < hi`` holds iff the signature
    at ``t`` equals the one at *now* — in both directions, a rewound
    clock included.
    """
    starts, ends = boundaries
    i, j = time_signature(boundaries, now)
    lo = max(starts[i - 1] if i else -inf, ends[j - 1] + 1 if j else -inf)
    hi = min(starts[i] if i < len(starts) else inf,
             ends[j] + 1 if j < len(ends) else inf)
    return lo, hi


class VerificationMemo:
    """Content-addressed cache of signature-verification verdicts.

    Keyed by ``(object hash, key)``: the object's ``hash_hex`` covers
    its signed bytes *and* its signature, and the key is the raw
    ``(modulus, exponent)`` pair, so a hit is exactly a re-verification
    of the same bytes under the same key — a pure recomputation,
    skipped.
    """

    def __init__(self):
        self._verdicts: GenerationMemo[
            tuple[str, RsaPublicKey], bool
        ] = GenerationMemo()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._verdicts)

    def verify_object(self, obj: SignedObject, key: RsaPublicKey) -> bool:
        """Memoized ``obj.verify_signature(key)``."""
        return self.verify(obj.hash_hex, key, obj.to_bytes(), obj.signed_end)

    def verify(self, digest: str, key: RsaPublicKey, wire: bytes,
               signed_end: int) -> bool:
        """The verdict on the wire form *wire* under *key*.

        Remembered, or :func:`~repro.rpki.objects.verify_wire` and
        remembered.  *digest* is the SHA-256 hex of *wire*: an object's
        ``hash_hex``, or that of wire bytes read but not built into
        one, so the two share verdicts.
        """
        memo_key = (digest, key)
        verdict = self._verdicts.get(memo_key)
        if verdict is not None:
            self.hits += 1
            return verdict
        self.misses += 1
        verdict = verify_wire(wire, signed_end, key)
        self._verdicts.put(memo_key, verdict)
        return verdict


class ParseMemo:
    """Content-addressed cache of :func:`repro.rpki.parse.parse_object`.

    Parsed objects are immutable (:class:`SignedObject` freezes payload
    access by convention and equality is by serialized bytes), so sharing
    one instance across runs is safe.  Failures are cached as the error
    message and re-raised as a fresh :class:`ObjectFormatError`.  A
    parsed ROA is returned but not held: what a ROA leaves behind is
    its :class:`RoaRow`.  A blob over :data:`DEFAULT_MAX_OBJECT_BYTES`
    is parsed without touching the memo.
    """

    def __init__(self):
        self._objects: GenerationMemo[str, SignedObject | str] = (
            GenerationMemo()
        )
        self.hits = 0
        self.misses = 0
        self.oversized = 0

    def __len__(self) -> int:
        return len(self._objects)

    def parse(self, data: bytes, digest: str | None = None) -> SignedObject:
        """Memoized parse; raises :class:`ObjectFormatError` like the real one.

        *digest* is the SHA-256 hex of *data* if the caller already has
        it; it keys the memo and becomes the object's ``hash_hex``.
        """
        if len(data) > DEFAULT_MAX_OBJECT_BYTES:
            # Too big to be worth remembering (and possibly hostile):
            # parse without touching the memo at all.
            self.oversized += 1
            return parse_object(data, digest)
        if digest is None:
            digest = sha256_hex(data)
        cached = self._objects.get(digest)
        if cached is not None:
            self.hits += 1
            if isinstance(cached, str):
                raise ObjectFormatError(cached)
            return cached
        self.misses += 1
        try:
            obj = parse_object(data, digest)
        except ObjectFormatError as exc:
            self._objects.put(digest, str(exc))
            raise
        if not isinstance(obj, Roa):  # a ROA is kept as its RoaRow instead
            self._objects.put(digest, obj)
        return obj


class RoaRow(NamedTuple):
    """Everything judging a ROA reads besides ``now`` and the issuer's CRL.

    A function of the ROA's bytes and its issuing certificate alone, so
    an :class:`IncrementalState` keeps it under ``(file SHA-256, issuer
    hash_hex)`` in place of the parsed ROA: the asserted VRPs (none once
    a check failed — that ROA is never accepted), the EE serial, the
    EE's and the ROA's validity windows, and the first failing check
    among issuer match, EE signature, CA-covers-EE, ROA signature and
    EE-covers-ROA as ``(severity, code, message)`` — ``early`` when it
    comes before the time and CRL checks.

    The row is also what an accepted ROA leaves behind (its ``failure``
    is then None): where a VRP came from, and whether its disappearance
    was corroborated by a CRL naming ``ee_serial`` (Suspenders).
    """

    vrps: tuple[VRP, ...]
    ee_serial: int
    ee_not_before: int
    ee_not_after: int
    not_before: int
    not_after: int
    failure: tuple | None
    early: bool


@dataclass(frozen=True)
class PointResult:
    """One publication point's local validation outcome, replayable.

    *Local* means everything the point itself contributed to the
    :class:`~repro.rp.pathval.ValidationRun` — issues, accepted child CA
    certificates (in file order; the caller recurses into them), one
    ``(file name, RoaRow)`` per accepted ROA (the row carries its VRPs),
    the validated contact, the CRL the point was judged against (signed
    by its CA; kept when stale, None when missing, unparsable or badly
    signed) under every publication URI of the CA (``crls``) — but
    nothing from child subtrees.

    What the outcome depends on is kept beside it: the issuing
    certificate's ``issuer`` hash, the ``strict`` manifest policy,
    ``copies`` — ``(uri, content digest or None when absent)`` per
    publication URI of the CA, primary first — and ``window``, the
    half-open ``[lo, hi)`` of :func:`time_window` over ``boundaries``
    (the sorted ``(starts, ends)`` of :func:`time_signature`).
    ``verify_count`` is how many signature checks the judgement
    performed, credited to the skipped-verifications counter on every
    reuse.
    """

    issuer: str
    strict: bool
    copies: tuple[tuple[str, str | None], ...]
    boundaries: tuple[tuple[int, ...], tuple[int, ...]]
    window: tuple[float, float]
    selected_uri: str
    issues: tuple = ()
    children: tuple = ()
    roas: tuple[tuple[str, RoaRow], ...] = ()
    contact: GhostbustersRecord | None = None
    crls: dict[str, Crl] = field(default_factory=dict)
    verify_count: int = 0

    @property
    def vrps(self) -> tuple[VRP, ...]:
        """Every VRP the point's ROAs asserted, in file order."""
        return tuple(vrp for _, row in self.roas for vrp in row.vrps)


class Level:
    """What a finished walk judged at one depth of the certificate tree.

    ``frontier`` is the list of CA certificates the level started from,
    ``uris`` their publication URIs, ``certs`` the judged ones and
    ``results`` their outcomes, both by subject key id in frontier order,
    the loop guard's repeats left out.  ``children`` is the next level's
    frontier, ``owners`` maps each URI a kept result read to the keys
    whose result read it, ``window`` is the largest ``lo`` and smallest
    ``hi`` of the kept windows (an instant inside it is inside every
    one), and ``verifies`` the signature checks the results performed.

    The levels of the last finished walk are the only point results a
    state keeps.  The next walk that starts a depth from the very same
    ``frontier`` list under the same policy judges again only the points
    a moved URI or the clock touches, and hands on this level's
    ``children`` list when their certificates are the same objects, so
    the depth below can do the same; from any other frontier it looks
    each point up against ``results``.
    """

    __slots__ = ("frontier", "uris", "certs", "results", "strict",
                 "children", "owners", "window", "verifies")

    def __init__(
        self,
        frontier: list,
        uris: frozenset[str],
        certs: dict[str, object],
        results: dict[str, PointResult],
        strict: bool,
        kept: "Level | None" = None,
    ):
        self.frontier, self.uris = frontier, uris
        self.certs, self.results, self.strict = certs, results, strict
        entries = list(results.values())
        children = [child for entry in entries for child in entry.children]
        if kept is not None and len(children) == len(kept.children) and all(
                map(is_, children, kept.children)):
            children = kept.children
        self.children = children
        # Tuples of strings, which the cyclic collector stops tracking.
        owners: dict[str, tuple[str, ...]] = {}
        for key_id, entry in results.items():
            for uri, _ in entry.copies:
                owners[uri] = owners.get(uri, ()) + (key_id,)
        self.owners = owners
        windows = list(map(attrgetter("window"), entries))
        self.window = (max(map(itemgetter(0), windows), default=-inf),
                       min(map(itemgetter(1), windows), default=inf))
        self.verifies = sum(map(attrgetter("verify_count"), entries))


class IncrementalState:
    """Everything a validator carries across runs to validate incrementally.

    Every :class:`~repro.rp.PathValidator` and
    :class:`~repro.rp.RelyingParty` holds one for its lifetime (pass
    one to :class:`~repro.rp.PathValidator` to share it); :meth:`clear`
    is always safe and merely makes the next run cold.
    """

    def __init__(self, *, metrics: MetricsRegistry | None = None):
        self.verify_memo = VerificationMemo()
        self.parse_memo = ParseMemo()
        # (ROA file SHA-256, issuer hash_hex) -> RoaRow; see PathValidator.
        self.roa_rows: GenerationMemo[tuple[str, str], RoaRow] = (
            GenerationMemo()
        )
        # The one VRP index of this state's lifetime, and the point
        # result each CA key contributed to it at the last finished walk
        # (ValidationWalk.finish edits the index by comparing against
        # these), each one that walk's ``levels`` hold.
        self.vrps = VrpSet()
        self.emitted: dict[str, PointResult] = {}
        # What the walks read: per publication URI the file dict and
        # content digest served when a walk last read it; ``source`` is
        # what wrote them last (a relying party's LocalCache, or None
        # for a snapshot handed to PathValidator.run), and ``changed``
        # the URIs whose entry moved since the last finished walk.
        self.files: dict[str, dict[str, bytes]] = {}
        self.digests: dict[str, str] = {}
        self.source: object | None = None
        self.changed: set[str] = set()
        # The last finished walk, one Level per depth (the one place a
        # PointResult is kept), and the run it assembled (the
        # validator's to read; see ValidationWalk.finish).
        self.levels: list[Level] = []
        self.assembled: object | None = None
        # The last walk's (anchor, issue) list, the window [lo, hi) it
        # holds in and the verification-memo lookups judging it made.
        self.anchors: tuple[list, float, float, int] = ([], 0, 0, 0)
        self.metrics = metrics if metrics is not None else default_registry()
        # (verify hits, verify misses, parse hits, parse misses) already
        # booked into the counters below; see book().
        self._booked = (0, 0, 0, 0)
        # Points replayed and validated, and the signature checks the
        # replays skipped, since the last book().
        self._reused = self._validated = self._skipped = 0
        verify_memo = self.metrics.counter(
            "repro_incremental_verify_memo_total",
            help="verification-memo lookups, by result",
            labelnames=("result",),
        )
        parse_memo = self.metrics.counter(
            "repro_incremental_parse_memo_total",
            help="parse-memo lookups, by result",
            labelnames=("result",),
        )
        # Label children are bound once: the refresh path resolves none.
        self._m_memos = [memo.bind(result=result) for memo in (
            verify_memo, parse_memo) for result in ("hit", "miss")]
        points = self.metrics.counter(
            "repro_incremental_points_total",
            help="publication points handled per run, reused vs revalidated",
            labelnames=("outcome",),
        )
        self._m_points = {outcome: points.bind(outcome=outcome)
                          for outcome in ("reused", "validated")}
        invalidations = self.metrics.counter(
            "repro_incremental_invalidations_total",
            help="why a cached point result could not be reused",
            labelnames=("reason",),
        )
        self._m_invalidations = {
            reason: invalidations.bind(reason=reason)
            for reason in ("new", "issuer", "policy", "content", "time")}
        self._m_skipped = self.metrics.counter(
            "repro_incremental_skipped_verifications_total",
            help="signature checks avoided by replaying cached point results",
        )
        entries = self.metrics.gauge(
            "repro_incremental_memo_entries",
            help="entries currently held, by memo",
            labelnames=("memo",),
        )
        self._m_entries = [entries.bind(memo=memo)
                           for memo in ("verify", "parse", "roa_rows")]

    # -- telemetry -----------------------------------------------------------

    def book(self) -> None:
        """Book what the walk since the last call did, once per walk.

        The memos count their own hits and misses, and :meth:`lookup`,
        :meth:`replayed` and the validator the points replayed and
        validated, as plain integers; the labelled counters are brought
        up to date here instead of on every lookup.
        """
        verify, parse = self.verify_memo, self.parse_memo
        # A blob too big for the memo was looked up and not found.
        totals = (verify.hits, verify.misses,
                  parse.hits, parse.misses + parse.oversized)
        for counter, total, booked in zip(self._m_memos, totals, self._booked):
            if total > booked:
                counter.inc(total - booked)
        self._booked = totals
        if self._reused:
            self._m_points["reused"].inc(self._reused)
        if self._validated:
            self._m_points["validated"].inc(self._validated)
        if self._skipped:
            self._m_skipped.inc(self._skipped)
        self._reused = self._validated = self._skipped = 0
        self._update_gauges()

    # -- the dirty-point check ----------------------------------------------

    def lookup(
        self, depth: int, ca_key_id: str, issuer: str, strict: bool, now: int
    ) -> PointResult | None:
        """The last walk's result for this CA's point, if still valid at *now*.

        The one clean-point check, against the result the last finished
        walk's level at *depth* holds for *ca_key_id*: the issuing
        certificate (*issuer*, its hash) and the manifest policy are the
        ones kept, every publication URI serves the digest kept for it
        in the walks' view (:attr:`digests`), and *now* lies in the kept
        window.  Returns None — after counting why — when the point is
        dirty, or new at this depth.
        """
        levels = self.levels
        entry = (levels[depth].results.get(ca_key_id)
                 if depth < len(levels) else None)
        reason = None
        if entry is None:
            reason = "new"
        elif entry.issuer != issuer:
            reason = "issuer"
        elif entry.strict != strict:
            reason = "policy"
        else:
            digests = self.digests
            for uri, digest in entry.copies:
                if digests.get(uri) != digest:
                    reason = "content"
                    break
            else:
                lo, hi = entry.window
                if not lo <= now < hi:
                    reason = "time"
        if reason is not None:
            self._m_invalidations[reason].inc()
            return None
        self._reused += 1
        self._skipped += entry.verify_count
        return entry

    def replayed(self, points: int, verifies: int) -> None:
        """Book *points* kept results replayed without a :meth:`lookup`
        (nothing they depend on moved) and the *verifies* they skip."""
        self._reused += points
        self._skipped += verifies

    def _update_gauges(self) -> None:
        verify, parse, roa_rows = self._m_entries
        verify.set(len(self.verify_memo))
        parse.set(len(self.parse_memo))
        roa_rows.set(len(self.roa_rows))

    # -- lifecycle -----------------------------------------------------------

    def clear(self) -> None:
        """Forget every memo and point result; the next run is fully cold.

        The index and what was emitted into it stay: they describe the
        table being served, and the cold run's freshly judged points
        replace the emitted ones assertion for assertion — withdraw all,
        announce all, net change empty if nothing else moved.
        """
        self.book()
        self.verify_memo = VerificationMemo()
        self.parse_memo = ParseMemo()
        self.roa_rows = GenerationMemo()
        self._booked = (0, 0, 0, 0)
        self.levels = []
        self.assembled = None
        self.anchors = ([], 0, 0, 0)
        self._update_gauges()
