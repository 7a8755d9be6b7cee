"""The walk: which publication points a refresh judges again.

A :class:`ValidationWalk` visits the certificate tree level by level
from the trust anchors and has every reached CA's point judged once, by
:meth:`~repro.rp.pathval.PathValidator.judge`, from what its validator
state's view serves for it: a relying party fetches each level's points
in one round just before the walk judges them and reads into the view
only the URIs its cache says changed, while
:meth:`~repro.rp.pathval.PathValidator.run` hands over a whole snapshot.
Deciding which points to judge again is this module's alone.

A :class:`Level` is what a walk judged at one depth, and the only place
a point result is kept: the state holds the last finished walk's levels.
A later walk that reaches the depth from the same certificates judges
again only the points a changed URI or the clock touched, so an idle
refresh does no per-point work after its fetch round; from any other
frontier it checks each point against the result the level holds for
its key (:meth:`ValidationWalk._lookup`) and replays it verbatim when
nothing it depends on moved.  A CA no walk judges any more leaves no
result behind.  The walk counts what it replayed and had judged, and
books the counts once it finishes.
"""

from __future__ import annotations

from itertools import chain
from math import inf
from operator import attrgetter, is_, itemgetter
from typing import NamedTuple

from ..rpki.cert import ResourceCertificate
from .incremental import PointResult, time_window
from .pathval import PathValidator, Severity, ValidationIssue, ValidationRun
from .vrp import VrpSet

__all__ = ["ValidationWalk"]

_MAX_DEPTH = 32

# Issue codes that mean "this object's bytes were rejected and the object
# was excluded while its siblings kept validating" — the containment
# outcomes a DegradationReport aggregates.
_QUARANTINE_CODES = frozenset({
    "parse-failed", "object-quarantined", "crl-parse-failed", "hash-mismatch",
})


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

    The next walk that starts a depth from the very same ``frontier``
    list under the same policy judges again only the points a moved URI
    or the clock touches, and hands on this level's ``children`` list
    when their certificates are the same objects, so the depth below can
    do the same; from any other frontier it looks each point up against
    ``results``.
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


class _Assembled(NamedTuple):
    """A walk's run, as assembled: what the next walk that judged the
    same point results returns again, in fresh containers."""

    anchors: list
    validated_cas: tuple
    issues: tuple
    roas: tuple
    contacts: dict
    crls: dict
    roa_count: int
    # (severity, issues of it) per severity with any, in Severity order.
    severities: tuple
    # (point URI, file name, code) per object the run excluded, and
    # (point URI, code) per point whose validation was contained whole.
    contained: tuple

    def run(self, vrps: VrpSet) -> ValidationRun:
        return ValidationRun(
            vrps=vrps, validated_cas=list(self.validated_cas),
            issues=list(self.issues), roas=list(self.roas),
            contacts=dict(self.contacts), crls=dict(self.crls),
        )


class ValidationWalk:
    """One level-by-level walk of the certificate tree.

    Construction judges the trust anchors at *now*.  :attr:`frontier`
    holds the CA certificates accepted at the current depth whose
    publication points have not been judged yet.  The caller brings
    what the validator's state reads up to date for them — a relying
    party fetches :meth:`publication_uris` and reads the ones that
    changed from its cache, :meth:`PathValidator.run` hands over a
    whole snapshot — then calls :meth:`step`, which judges each frontier
    point once and makes the accepted children the next frontier.  When
    the frontier is empty, :meth:`finish` assembles the
    :class:`ValidationRun` depth-first.

    Each depth is judged against the last finished walk's :class:`Level`
    at that depth, the only point results the state keeps; see
    :meth:`_judge`.

    One CA *key* gets one walk: if a second certificate for an
    already-judged key turns up (malicious self-recertification, or one
    key certified twice), it is listed among the validated CAs but its
    point is not judged again.
    """

    def __init__(self, validator: PathValidator, now: int):
        self._validator = validator
        self._state = state = validator.incremental
        # Points replayed and judged, the signature checks the replays
        # skipped and why each dirty point was; booked by finish().
        self._reused = self._validated = self._skipped = 0
        self._invalidated: list[str] = []
        # The last walk's anchor verdicts while the anchors are the same
        # objects and *now* is in their window (its memo lookups booked).
        anchors = validator.trust_anchors
        judged, lo, hi, lookups = state.anchors
        if (lo <= now < hi and len(judged) == len(anchors)
                and all(map(is_, map(itemgetter(0), judged), anchors))):
            state.verify_memo.hits += lookups
        else:
            memo = state.verify_memo
            before = memo.hits + memo.misses
            judged = [(anchor, validator.anchor_issue(anchor, now))
                      for anchor in anchors]
            lookups = memo.hits + memo.misses - before
            lo, hi = time_window((sorted(a.not_before for a in anchors),
                                  sorted(a.not_after for a in anchors)), now)
        self._anchors = judged
        self._kept_anchors = (judged, lo, hi, lookups)
        # Subject key id -> the certificate judged for it, and its outcome.
        self._certs: dict[str, ResourceCertificate] = {}
        self._results: dict[str, PointResult] = {}
        self._levels: list[Level] = []
        self._depth = 0
        self._now = now
        frontier = [anchor for anchor, issue in self._anchors if issue is None]
        if state.levels:
            kept = state.levels[0].frontier
            if len(kept) == len(frontier) and all(map(is_, kept, frontier)):
                frontier = kept
        self.frontier: list[ResourceCertificate] = frontier

    def _kept(self) -> Level | None:
        """The last walk's level at this depth, if it started from this
        very frontier."""
        levels = self._state.levels
        if self._depth < len(levels):
            kept = levels[self._depth]
            if kept.frontier is self.frontier:
                return kept
        return None

    def publication_uris(self) -> frozenset[str]:
        """Every publication URI (mirrors included) of the frontier's CAs."""
        kept = self._kept()
        if kept is not None:
            return kept.uris
        return frozenset([
            uri
            for ca_cert in self.frontier
            for uri in ca_cert.all_publication_uris
        ])

    def step(self, now: int) -> None:
        """Judge the frontier's points at *now*, from what the state reads.

        The judgement is one trace node: a point replayed is a count on
        it, a point judged a node under it.
        """
        metrics = self._validator.metrics
        judge = metrics.open("judge", now)
        replayed = self._reused
        level = self._judge(now)
        self._levels.append(level)
        self._certs.update(level.certs)
        self._results.update(level.results)
        judge.counts.update(points=len(self.frontier),
                            replayed=self._reused - replayed)
        metrics.close(judge, now)
        self._depth += 1
        self._now = now
        self.frontier = level.children

    def _judge(self, now: int) -> Level:
        """Judge the frontier's points: the one judgement of a depth.

        When the frontier is the very list the last walk's level at this
        depth started from, under the same policy, every issuing
        certificate and loop-guard decision is the one that level was
        judged with, and only its suspects are judged again: the points
        a URI they read changed under since the last walk, or whose
        window *now* has left.  The others are replayed, booked in bulk,
        and the level itself is returned when no suspect moved.
        Otherwise every frontier key the loop guard lets through is
        judged, each looked up against that level first.
        """
        validator, state = self._validator, self._state
        kept = self._kept()
        if kept is not None and kept.strict == validator.strict_manifests:
            certs, results = kept.certs, kept.results
            suspects: set[str] = set()
            if state.changed:
                owners = kept.owners
                for uri in state.changed.intersection(owners):
                    suspects.update(owners[uri])
            lo, hi = kept.window
            if not lo <= now < hi:
                for key_id, entry in results.items():
                    lo, hi = entry.window
                    if not lo <= now < hi:
                        suspects.add(key_id)
            if not suspects:
                self._reused += len(results)
                self._skipped += kept.verifies
                return kept
            self._reused += len(results) - len(suspects)
            self._skipped += kept.verifies - sum(
                results[key_id].verify_count for key_id in suspects)
            results = dict(results)
        else:
            kept, certs, results = None, {}, {}
            if self._depth <= _MAX_DEPTH:
                # The loop guard (malicious self-recertification): a key
                # is judged once, under the first certificate reached.
                judged = self._certs
                for ca_cert in self.frontier:
                    key_id = ca_cert.subject_key_id
                    if key_id not in judged:
                        certs.setdefault(key_id, ca_cert)
            suspects = certs
        moved = kept is None
        for key_id in [key_id for key_id in certs if key_id in suspects]:
            ca_cert = certs[key_id]
            entry = self._lookup(ca_cert, now)
            if entry is None:
                entry = validator.judge(ca_cert, state.files, state.digests,
                                        now)
                # A quarantined point's window is empty: none was validated.
                lo, hi = entry.window
                self._validated += lo < hi
            if entry is not results.get(key_id):
                results[key_id] = entry
                moved = True
        if not moved:
            return kept
        return Level(self.frontier, self.publication_uris(), certs, results,
                     validator.strict_manifests, kept)

    def _lookup(
        self, ca_cert: ResourceCertificate, now: int
    ) -> PointResult | None:
        """The last walk's result for this CA's point, if still valid at *now*.

        The one clean-point check, against the result the last finished
        walk's level at this depth holds for the CA's key: the issuing
        certificate (its hash) and the manifest policy are the ones
        kept, every publication URI serves the digest kept for it in the
        state's view of what is served, and *now* lies in the kept
        window.  Returns None — after counting why — when the point is
        dirty, or new at this depth.
        """
        levels, depth = self._state.levels, self._depth
        entry = (levels[depth].results.get(ca_cert.subject_key_id)
                 if depth < len(levels) else None)
        reason = None
        if entry is None:
            reason = "new"
        elif entry.issuer != ca_cert.hash_hex:
            reason = "issuer"
        elif entry.strict != self._validator.strict_manifests:
            reason = "policy"
        else:
            digests = self._state.digests
            for uri, digest in entry.copies:
                if digests.get(uri) != digest:
                    reason = "content"
                    break
            else:
                lo, hi = entry.window
                if not lo <= now < hi:
                    reason = "time"
        if reason is not None:
            self._invalidated.append(reason)
            return None
        self._reused += 1
        self._skipped += entry.verify_count
        return entry

    def finish(self) -> ValidationRun:
        """Assemble the judged points, depth-first from the trust anchors.

        A walk whose every depth kept the last walk's :class:`Level`,
        from the same anchors, judged the same point results: it returns
        the last assembled run again, in fresh containers, and the VRP
        index does not move.  Otherwise the index is *edited*, not
        rebuilt: per emitted CA key this walk's point result is compared
        with the one emitted last time — the same object was replayed
        and contributes nothing; a different one, or a key no longer
        emitted, withdraws the old result's VRPs and announces the new
        one's.  On a new state "last time" is empty and so is the index,
        and the same edit is a bulk build.  The edit and the state's
        update are the last things to happen: a walk that raised
        anywhere left both alone.
        """
        state = self._state
        index, last = state.vrps, state.emitted
        metrics = self._validator.metrics
        assembled = state.assembled
        if (assembled is not None and assembled.anchors is self._anchors
                and len(self._levels) == len(state.levels)
                and all(map(is_, self._levels, state.levels))):
            result = assembled.run(index)
            emitted = last
        else:
            result = ValidationRun(vrps=index)
            emitted = {}
            for anchor, issue in self._anchors:
                if issue is not None:
                    result.issues.append(issue)
                    continue
                result.validated_cas.append(anchor)
                self._emit(anchor, result, emitted)
            issues = result.issues
            assembled = _Assembled(
                self._anchors, tuple(result.validated_cas),
                tuple(issues), tuple(result.roas),
                dict(result.contacts), dict(result.crls), result.roa_count,
                _severities(issues), _contained(issues),
            )
        edit = metrics.open("vrp-edit", self._now)
        if emitted is not last:
            withdrawn = [
                entry.vrps for key_id, entry in last.items()
                if emitted.get(key_id) is not entry
            ]
            announced = [
                entry.vrps for key_id, entry in emitted.items()
                if last.get(key_id) is not entry
            ]
            result.announced, result.withdrawn = index.apply_delta(
                chain.from_iterable(announced), chain.from_iterable(withdrawn)
            )
        edit.counts.update(announced=len(result.announced),
                           withdrawn=len(result.withdrawn))
        metrics.close(edit, self._now)
        state.emitted = emitted
        state.anchors = self._kept_anchors
        state.levels = self._levels
        state.assembled = assembled
        state.changed.clear()
        state.book(self._reused, self._validated, self._skipped,
                   self._invalidated)
        self._validator.book(assembled)
        return result

    def _emit(
        self,
        anchor: ResourceCertificate,
        result: ValidationRun,
        emitted: dict[str, PointResult],
    ) -> None:
        """Apply the judged points under *anchor*, depth-first.

        Each point's local outcome goes in before its children's
        subtrees, children in file order, and every child certificate is
        listed as it is reached — the order of a recursive descent, kept
        on an explicit stack.  Replayed and freshly computed results take
        the identical path, so warm output equals cold output by
        construction.
        """
        certs, results = self._certs, self._results
        issues, cas = result.issues, result.validated_cas
        stack = [(anchor, 0)]
        while stack:
            ca_cert, depth = stack.pop()
            if depth:
                cas.append(ca_cert)
                if depth > _MAX_DEPTH:
                    issues.append(ValidationIssue(
                        Severity.ERROR, ca_cert.sia, "", "depth-exceeded",
                        "certificate chain deeper than the validator allows",
                    ))
                    continue
            key_id = ca_cert.subject_key_id
            if key_id in emitted or certs.get(key_id) is not ca_cert:
                continue  # this key's point belongs to another certificate
            entry = emitted[key_id] = results[key_id]
            issues.extend(entry.issues)
            if entry.contact is not None:
                result.contacts[entry.selected_uri] = entry.contact
            result.crls.update(entry.crls)
            result.roas.append((entry.selected_uri, entry.roas))
            if entry.children:
                depth += 1
                stack.extend((child, depth) for child in reversed(entry.children))


def _contained(issues) -> tuple:
    """The containment outcomes of *issues*, classified once per run."""
    return (tuple((i.point_uri, i.file_name, i.code) for i in issues
                  if i.code in _QUARANTINE_CODES),
            tuple((i.point_uri, i.code) for i in issues
                  if i.code == "point-quarantined"))


def _severities(issues) -> tuple:
    """(severity, count) per severity *issues* has, in Severity order."""
    severities = list(map(attrgetter("severity"), issues))
    return tuple((severity, count) for severity in Severity
                 if (count := severities.count(severity)))
