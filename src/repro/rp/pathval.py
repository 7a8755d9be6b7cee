"""Certificate-path validation: from cached bytes to validated ROAs.

Implements the relying party's core algorithm (RFC 6487/6482/6486
semantics): starting from trust anchors, walk the certificate hierarchy
through the cached publication points, checking at every step

- signatures (issuer key signs child object),
- validity windows against simulated time,
- revocation against the issuer's CRL,
- resource coverage (child resources ⊆ issuing certificate's resources —
  the least-privilege rule whose *shrinking* is the whacking attack), and
- manifest consistency (with an explicit strictness policy, because the
  RFCs "do not specify what action should be taken" on mismatch — paper,
  Section 4).

Everything that fails produces a :class:`ValidationIssue` instead of an
exception: for a relying party, broken data is an input condition, and the
paper's entire Section 4 is about what those conditions do to routing.

Validation is organized around *publication points*: each accepted CA
certificate leads to one point, whose local outcome (issues, accepted
children, ROA rows, VRPs, contact, CRL) is judged as a unit by
:meth:`PathValidator.judge`, from the served files and their content
digests, into the :class:`~repro.rp.incremental.PointResult` that
:mod:`repro.rp.incremental` keeps.  Which points are judged again, and
how their results assemble into a :class:`ValidationRun`, is the walk's
(:mod:`repro.rp.walk`); the judge reads the memos of its validator's
:class:`~repro.rp.incremental.IncrementalState` and nothing else of it.
The oracle the tests hold both to is the reference validator under
``tests/rp/``, which shares none of this code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import itemgetter

from ..crypto import RsaPublicKey, sha256_hex
from ..repository.cache import point_digest
from ..telemetry import MetricsRegistry, default_registry
from ..rpki.ca import CRL_FILE, MANIFEST_FILE
from ..rpki.cert import ResourceCertificate
from ..rpki.crl import Crl
from ..rpki.errors import ObjectFormatError
from ..rpki.manifest import Manifest
from ..rpki.ghostbusters import GhostbustersRecord
from ..rpki.objects import SignedObject
from ..rpki.parse import class_of
from ..rpki.roa import Roa, RoaRead, read_roa, roa_of
from .incremental import IncrementalState, PointResult, RoaRow, time_window
from .vrp import VRP, VrpSet

__all__ = [
    "Severity",
    "ValidationIssue",
    "ValidationRun",
    "PathValidator",
]


class Severity(enum.Enum):
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found while validating cached RPKI data."""

    severity: Severity
    point_uri: str
    file_name: str
    code: str
    message: str

    def __str__(self) -> str:
        return (
            f"[{self.severity.value}] {self.point_uri}{self.file_name}: "
            f"{self.code}: {self.message}"
        )


@dataclass
class ValidationRun:
    """The output of one full path-validation pass."""

    vrps: VrpSet = field(default_factory=VrpSet)
    validated_cas: list[ResourceCertificate] = field(default_factory=list)
    issues: list[ValidationIssue] = field(default_factory=list)
    # Every accepted ROA as (file name, its RoaRow), grouped by the
    # publication point (selected copy's URI) it was read from, in walk
    # order.  Every run of one validator shares its state's live
    # ``vrps`` index, so this is the field two such runs are told apart by.
    roas: list[tuple[str, tuple[tuple[str, RoaRow], ...]]] = field(
        default_factory=list
    )
    # Validated Ghostbusters contact per publication point URI.
    contacts: dict[str, GhostbustersRecord] = field(default_factory=dict)
    # The CRL each validated CA's point was judged against, signed by
    # that CA, under every publication URI of the CA (mirrors included).
    crls: dict[str, Crl] = field(default_factory=dict)
    # How this walk changed ``vrps`` against the previous walk's table.
    # A record of the transition, not part of the outcome two runs are
    # compared by.
    announced: tuple[VRP, ...] = field(default=(), compare=False)
    withdrawn: tuple[VRP, ...] = field(default=(), compare=False)

    @property
    def roa_count(self) -> int:
        """How many ROAs this walk accepted."""
        return sum(map(len, map(itemgetter(1), self.roas)))

    def errors(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity is Severity.ERROR]

    def warnings(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity is Severity.WARNING]

    def has_issue(self, code: str) -> bool:
        return any(issue.code == code for issue in self.issues)


class PathValidator:
    """Validates cached publication points into a :class:`ValidationRun`.

    Parameters
    ----------
    trust_anchors:
        The self-signed certificates configured out of band (the TAL
        analog).  These are *axioms*: their resources are accepted as-is.
    strict_manifests:
        If True, a publication point whose manifest is missing, invalid,
        stale, or inconsistent with the fetched files is discarded whole.
        If False (default, matching deployed RP behaviour circa the
        paper), individual objects are still used and issues are recorded
        as warnings — the lenient end of the "what to do about incomplete
        information?" tradeoff.
    incremental:
        The :class:`~repro.rp.incremental.IncrementalState` that carries
        memos, per-point results and the VRP index across walks; ``None``
        (default) builds a fresh one, so a new validator's first walk is
        cold.  Replayed and freshly computed points take the identical
        code path, so a warm walk's output is byte-for-byte equal to a
        cold one's — but its ``vrps`` is the state's one index, edited by
        the next walk.
    """

    def __init__(
        self,
        trust_anchors: list[ResourceCertificate],
        *,
        strict_manifests: bool = False,
        metrics: MetricsRegistry | None = None,
        incremental: IncrementalState | None = None,
    ):
        if not trust_anchors:
            raise ValueError("at least one trust anchor is required")
        self.trust_anchors = list(trust_anchors)
        self.strict_manifests = strict_manifests
        self._verify_calls = 0
        self.metrics = metrics if metrics is not None else default_registry()
        self.incremental = (
            incremental if incremental is not None
            else IncrementalState(metrics=self.metrics)
        )
        self._m_runs = self.metrics.counter(
            "repro_validation_runs_total",
            help="certificate-tree walks completed (one per refresh or "
                 "PathValidator.run call)",
        )
        objects = self.metrics.counter(
            "repro_validation_objects_total",
            help="objects accepted by path validation, by type",
            labelnames=("type",),
        )
        self._m_cas, self._m_roas, self._m_contacts = (
            objects.bind(type=t) for t in ("ca", "roa", "ghostbusters"))
        self._m_issues = self.metrics.counter(
            "repro_validation_issues_total",
            help="validation issues recorded, by severity",
            labelnames=("severity",),
        )
        if self.metrics.timer is not None:
            # A timed registry charges the work inside a point to its
            # stages, at the calls every object goes through.
            staged = self.metrics.staged
            self._verify = staged("verify", self._verify)
            self._verify_wire = staged("verify", self._verify_wire)
            self._parse = staged("decode", self._parse)
            self._read_roa = staged("decode", self._read_roa)
            self._roa_row = staged("row-build", self._roa_row)
            self._judge_roa = staged("row-judge", self._judge_roa)

    def run(
        self,
        cache_files: dict[str, dict[str, bytes]],
        now: int,
        *,
        digests: dict[str, str] | None = None,
    ) -> ValidationRun:
        """Validate everything reachable from the trust anchors.

        The same walk a relying party's refresh performs, over a fixed
        snapshot judged at the single instant *now* and with no fetching.
        *cache_files* maps publication point URI → file name → bytes
        (the shape of :meth:`repro.repository.LocalCache.snapshot`).
        *digests* optionally maps every one of those URIs to its content
        digest (the shape of :meth:`repro.repository.LocalCache.digests`),
        the points' reuse key; computed from the bytes when absent.
        """
        if digests is None:
            digests = {
                uri: point_digest(files) for uri, files in cache_files.items()
            }
        # The snapshot becomes what the walk reads; the URIs whose digest
        # moved against what the last walk read are its changed set.
        state = self.incremental
        seen = state.digests
        state.changed.update(
            uri for uri in seen.keys() | digests.keys()
            if seen.get(uri) != digests.get(uri)
        )
        state.files, state.digests = dict(cache_files), dict(digests)
        state.source = None
        # The judge's one import of the walk: run stays on the validator
        # while benchmarks/e2e/stack.py times it there.
        from .walk import ValidationWalk

        walk = ValidationWalk(self, now)
        while walk.frontier:
            walk.step(now)
        return walk.finish()

    # -- memo-aware primitives ----------------------------------------------

    def _read_roa(self, blob: bytes) -> RoaRead:
        """A ROA's fields straight from its bytes (:func:`read_roa`)."""
        return read_roa(blob)

    def _verify(self, obj: SignedObject, key: RsaPublicKey) -> bool:
        """Signature check, via the state's verification memo."""
        self._verify_calls += 1
        return self.incremental.verify_memo.verify_object(obj, key)

    def _verify_wire(self, digest: str, wire: bytes, signed_end: int,
                     key: RsaPublicKey) -> bool:
        """Signature check of a wire form read but not built, via the
        same memo (*digest* is the SHA-256 hex of *wire*)."""
        self._verify_calls += 1
        return self.incremental.verify_memo.verify(digest, key, wire,
                                                   signed_end)

    def _parse(self, data: bytes, digest: str | None = None) -> SignedObject:
        """Parse, via the state's parse memo.

        *digest* is the SHA-256 hex of *data* when the caller has it: the
        memo's key and the parsed object's ``hash_hex``, computed once.
        """
        return self.incremental.parse_memo.parse(data, digest)

    # -- the judge ------------------------------------------------------------

    def anchor_issue(
        self, anchor: ResourceCertificate, now: int
    ) -> ValidationIssue | None:
        """Why *anchor* cannot root a walk at *now* (None = accepted)."""
        if not anchor.is_self_signed or not self._verify(
            anchor, anchor.subject_key
        ):
            return ValidationIssue(
                Severity.ERROR, anchor.sia, "", "ta-bad-signature",
                f"trust anchor {anchor.subject!r} is not properly self-signed",
            )
        if not anchor.is_current(now):
            return ValidationIssue(
                Severity.ERROR, anchor.sia, "", "ta-expired",
                f"trust anchor {anchor.subject!r} is outside its validity "
                f"window [{anchor.not_before}, {anchor.not_after}]",
            )
        return None

    def judge(
        self,
        ca_cert: ResourceCertificate,
        files: dict[str, dict[str, bytes]],
        digests: dict[str, str],
        now: int,
    ) -> PointResult:
        """The verdict on *ca_cert*'s publication point at *now*.

        *files* maps publication URI → file name → bytes and *digests*
        each URI to its content digest, for every copy that is served.
        Never raises: a validation that raised is contained into a
        quarantined result (:meth:`_quarantined_point`), whose window
        is empty.  The judgement is a trace node of its own, with what
        it read and did.
        """
        parse = self.incremental.parse_memo
        hits = parse.hits
        node = self.metrics.open("point " + ca_cert.sia, now)
        try:
            entry = self._validate_point(
                ca_cert, files, digests, now, node.counts
            )
        except Exception as exc:  # containment: one bad point ≠ dead run
            entry = self._quarantined_point(ca_cert, exc)
        read = files.get(entry.selected_uri, {})
        node.counts.update(
            objects=len(read), bytes=sum(map(len, read.values())),
            verifies=entry.verify_count, parse_hits=parse.hits - hits,
        )
        self.metrics.close(node, now)
        return entry

    def book(self, run) -> None:
        """Book one finished walk's assembled *run* into the registry."""
        self._m_runs.inc()
        if run.validated_cas:
            self._m_cas.inc(len(run.validated_cas))
        if run.roa_count:
            self._m_roas.inc(run.roa_count)
        if run.contacts:
            self._m_contacts.inc(len(run.contacts))
        for severity, count in run.severities:
            self._m_issues.inc(count, severity=severity.value)

    # -- internals ----------------------------------------------------------

    def _validate_point(
        self,
        ca_cert: ResourceCertificate,
        cache_files: dict[str, dict[str, bytes]],
        digests: dict[str, str],
        now: int,
        counts: dict[str, int],
    ) -> PointResult:
        """Cold-validate one publication point into a replayable result.

        *counts* receives how many ROA rows were built and reused.
        """
        issues: list[ValidationIssue] = []
        verify_before = self._verify_calls

        selected = self._select_point_copy(ca_cert, cache_files, now)
        if selected is None:
            issues.append(ValidationIssue(
                Severity.ERROR, ca_cert.sia, "", "point-missing",
                f"publication point of {ca_cert.subject!r} absent from cache",
            ))
            return self._finish_point(
                ca_cert, cache_files, digests, None, now,
                issues, [], [], None, None, verify_before,
            )
        copy, manifest_issues, usable = selected
        point_uri = copy.uri
        if point_uri != ca_cert.sia:
            issues.append(ValidationIssue(
                Severity.WARNING, ca_cert.sia, "", "using-mirror",
                f"primary copy unusable or absent; using mirror {point_uri}",
            ))

        crl = self._load_crl(copy, ca_cert, now, issues)
        issues.extend(manifest_issues)
        children: list[ResourceCertificate] = []
        roas: list[tuple[str, RoaRow]] = []
        contact: GhostbustersRecord | None = None
        rows = self.incremental.roa_rows
        built = reused = 0
        if usable is not None:  # strict mode may discard the point whole
            for file_name in sorted(usable):
                if file_name in (CRL_FILE, MANIFEST_FILE):
                    continue
                # A ROA judged before under this issuer is judged again
                # from its row: nothing is parsed or verified.  A new one
                # is read straight to its row; no Roa is built.
                row_key = (copy.digests[file_name], ca_cert.hash_hex)
                row = rows.get(row_key)
                try:
                    blob = copy.files[file_name]
                    if row is not None:
                        reused += 1
                    elif class_of(blob) is Roa:
                        row = self._roa_row(
                            self._read_roa(blob), copy.digests[file_name],
                            ca_cert,
                        )
                        rows.put(row_key, row)
                        built += 1
                    else:
                        obj = self._parse_file(copy, file_name)
                except ObjectFormatError as exc:
                    issues.append(ValidationIssue(
                        Severity.ERROR, point_uri, file_name, "parse-failed",
                        str(exc),
                    ))
                    continue
                except Exception as exc:
                    # Anything past the format layer (decoder recursion
                    # blow-ups, pathological payloads) quarantines just
                    # this object; siblings keep validating.
                    issues.append(ValidationIssue(
                        Severity.ERROR, point_uri, file_name,
                        "object-quarantined",
                        f"{type(exc).__name__}: {exc}",
                    ))
                    continue
                try:
                    if row is not None:
                        # A ROA leaves its row, never its parse: holding
                        # every Roa makes memory O(deployment), not O(VRPs).
                        copy.rows[file_name] = row
                        if self._judge_roa(
                            row, copy, file_name, crl, now, issues
                        ):
                            roas.append((file_name, row))
                    elif isinstance(obj, ResourceCertificate):
                        child = self._check_child_cert(
                            point_uri, file_name, obj, ca_cert, crl, now, issues
                        )
                        if child is not None:
                            children.append(child)
                    elif isinstance(obj, GhostbustersRecord):
                        record = self._check_ghostbusters(
                            point_uri, file_name, obj, ca_cert, crl, now, issues
                        )
                        if record is not None:
                            contact = record
                    else:
                        issues.append(ValidationIssue(
                            Severity.WARNING, point_uri, file_name,
                            "unexpected-type",
                            f"unexpected object type {obj.TYPE!r} in publication point",
                        ))
                except Exception as exc:
                    issues.append(ValidationIssue(
                        Severity.ERROR, point_uri, file_name,
                        "object-quarantined",
                        f"{type(exc).__name__}: {exc}",
                    ))
                    continue
        counts.update(rows_built=built, rows_reused=reused)
        return self._finish_point(
            ca_cert, cache_files, digests, copy, now,
            issues, children, roas, contact, crl, verify_before,
        )

    def _parse_file(self, copy: "_PointCopy", file_name: str) -> SignedObject:
        """Parse one file of *copy*, once per judgement, under its digest."""
        obj = copy.parsed.get(file_name)
        if obj is None:
            obj = copy.parsed[file_name] = self._parse(
                copy.files[file_name], copy.digests[file_name]
            )
        return obj

    def _finish_point(
        self,
        ca_cert: ResourceCertificate,
        cache_files: dict[str, dict[str, bytes]],
        digests: dict[str, str],
        selected: "_PointCopy | None",
        now: int,
        issues: list[ValidationIssue],
        children: list[ResourceCertificate],
        roas: list[tuple[str, RoaRow]],
        contact: GhostbustersRecord | None,
        crl: Crl | None,
        verify_before: int,
    ) -> PointResult:
        """Package a point's outcome with what its reuse depends on."""
        boundaries = self._collect_boundaries(ca_cert, cache_files, selected)
        uris = ca_cert.all_publication_uris
        return PointResult(
            issuer=ca_cert.hash_hex,
            strict=self.strict_manifests,
            copies=tuple((uri, digests.get(uri)) for uri in uris),
            boundaries=boundaries,
            window=time_window(boundaries, now),
            selected_uri=ca_cert.sia if selected is None else selected.uri,
            issues=tuple(issues),
            children=tuple(children),
            roas=tuple(roas),
            contact=contact,
            crls={} if crl is None else dict.fromkeys(uris, crl),
            verify_count=self._verify_calls - verify_before,
        )

    def _quarantined_point(
        self, ca_cert: ResourceCertificate, exc: Exception
    ) -> PointResult:
        """An empty result for a point whose validation raised.

        Its window is empty, so no later walk replays it: the next one
        retries the point from scratch instead of replaying the failure.
        """
        issue = ValidationIssue(
            Severity.ERROR, ca_cert.sia, "", "point-quarantined",
            f"validation raised {type(exc).__name__}: {exc}",
        )
        return PointResult(
            issuer=ca_cert.hash_hex,
            strict=self.strict_manifests,
            copies=(),
            boundaries=((), ()),
            window=(0, 0),
            selected_uri=ca_cert.sia,
            issues=(issue,),
        )

    def _collect_boundaries(
        self,
        ca_cert: ResourceCertificate,
        cache_files: dict[str, dict[str, bytes]],
        selected: "_PointCopy | None",
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Every time boundary this point's verdicts could depend on.

        Each time predicate the point evaluates — ``not_before <= now``,
        ``now <= not_after``, ``next_update < now`` (``next_update``
        aliases the payload ``not_after`` for CRLs and manifests) — flips
        only at a validity edge of some parseable object: every object of
        the selected copy, the EE certificates embedded in ROAs and
        Ghostbusters records, and the manifests of *other* cached copies
        (their staleness steers :meth:`_select_point_copy`).  A superset
        is collected — extra boundaries cause at worst a spurious
        revalidation, never a stale reuse.  Unparseable bytes contribute
        nothing: their outcome cannot depend on time, and any byte change
        is caught by the content fingerprint instead.  Returned as the
        sorted ``(starts, ends)`` :func:`time_signature` bisects.

        The selected copy's windows come from the rows and objects the
        judgement already had; only a file it never opened (dropped on a
        hash mismatch, or the whole point discarded in strict mode) is
        parsed here.
        """
        starts: set[int] = set()
        ends: set[int] = set()

        def add(obj: SignedObject) -> None:
            starts.add(obj.not_before)
            ends.add(obj.not_after)

        selected_files = None if selected is None else selected.files
        for uri in ca_cert.all_publication_uris:
            files = cache_files.get(uri)
            if files is None or files is selected_files:
                continue
            data = files.get(MANIFEST_FILE)
            if data is None:
                continue
            try:
                mirror_manifest = self._parse(data)
            except Exception:
                continue  # unparseable bytes contribute no boundaries
            if isinstance(mirror_manifest, Manifest):
                add(mirror_manifest)
        if selected is not None:
            for file_name in selected.files:
                row = selected.rows.get(file_name)
                if row is not None:
                    starts.update((row.ee_not_before, row.not_before))
                    ends.update((row.ee_not_after, row.not_after))
                    continue
                try:
                    obj = self._parse_file(selected, file_name)
                except Exception:
                    continue  # unparseable bytes contribute no boundaries
                add(obj)
                ee = getattr(obj, "ee_cert", None)
                if ee is not None:
                    add(ee)
        return tuple(sorted(starts)), tuple(sorted(ends))

    def _select_point_copy(
        self,
        ca_cert: ResourceCertificate,
        cache_files: dict[str, dict[str, bytes]],
        now: int,
    ) -> "tuple[_PointCopy, list[ValidationIssue], set[str] | None] | None":
        """Pick which cached copy of a CA's publication point to use.

        Candidates are the primary SIA then each mirror, each judged once
        by :meth:`_apply_manifest`.  A copy is *consistent* when that
        judgement records no issue: its manifest parses, verifies under
        the CA key, is current, and lists exactly the files present, each
        with a matching hash.  The first consistent copy wins; if none
        is, the first cached copy (primary preferred) is used so its
        problems surface as ordinary validation issues.  Returns the copy
        with its manifest issues and usable file names, or None if
        nothing is cached.
        """
        first_present = None
        for uri in ca_cert.all_publication_uris:
            files = cache_files.get(uri)
            if files is None:
                continue
            copy = _PointCopy(uri, files)
            issues: list[ValidationIssue] = []
            usable = self._apply_manifest(copy, ca_cert, now, issues)
            if not issues:
                return copy, issues, usable
            if first_present is None:
                first_present = copy, issues, usable
        return first_present

    def _load_crl(self, copy, ca_cert, now, issues) -> Crl | None:
        point_uri = copy.uri
        if CRL_FILE not in copy.files:
            issues.append(ValidationIssue(
                Severity.WARNING, point_uri, CRL_FILE, "crl-missing",
                "no CRL at publication point; revocation cannot be checked",
            ))
            return None
        try:
            crl = self._parse_file(copy, CRL_FILE)
        except Exception as exc:
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, CRL_FILE, "crl-parse-failed", str(exc),
            ))
            return None
        if not isinstance(crl, Crl) or not self._verify(
            crl, ca_cert.subject_key
        ):
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, CRL_FILE, "crl-bad-signature",
                "CRL does not verify under the CA key",
            ))
            return None
        if crl.next_update < now:
            issues.append(ValidationIssue(
                Severity.WARNING, point_uri, CRL_FILE, "crl-stale",
                f"CRL nextUpdate {crl.next_update} is in the past",
            ))
        return crl

    def _apply_manifest(
        self, copy, ca_cert, now, issues
    ) -> set[str] | None:
        """Check manifest consistency; returns the usable file names.

        Returns None if strict mode discards the whole point.
        """
        point_uri = copy.uri
        strict_fail: str | None = None
        manifest: Manifest | None = None
        if MANIFEST_FILE not in copy.files:
            issues.append(ValidationIssue(
                Severity.WARNING, point_uri, MANIFEST_FILE, "manifest-missing",
                "no manifest; cannot detect missing or extra objects",
            ))
            strict_fail = "manifest-missing"
        else:
            try:
                parsed = self._parse_file(copy, MANIFEST_FILE)
                manifest = parsed if isinstance(parsed, Manifest) else None
            except Exception:
                manifest = None
            if manifest is None or not self._verify(
                manifest, ca_cert.subject_key
            ):
                issues.append(ValidationIssue(
                    Severity.ERROR, point_uri, MANIFEST_FILE,
                    "manifest-bad", "manifest unparsable or badly signed",
                ))
                manifest = None
                strict_fail = "manifest-bad"

        usable = {name for name in copy.files if name != MANIFEST_FILE}
        if manifest is not None:
            if manifest.next_update < now:
                issues.append(ValidationIssue(
                    Severity.WARNING, point_uri, MANIFEST_FILE, "manifest-stale",
                    f"manifest nextUpdate {manifest.next_update} is in the past",
                ))
                strict_fail = strict_fail or "manifest-stale"
            on_disk = set(usable)
            listed = manifest.file_names
            for missing in sorted(listed - on_disk):
                issues.append(ValidationIssue(
                    Severity.WARNING, point_uri, missing, "manifest-file-missing",
                    "file listed in manifest but absent from fetch",
                ))
                strict_fail = strict_fail or "manifest-file-missing"
            for extra in sorted(on_disk - listed):
                issues.append(ValidationIssue(
                    Severity.WARNING, point_uri, extra, "manifest-file-extra",
                    "file present but not listed in manifest",
                ))
            for file_name in sorted(on_disk & listed):
                if copy.digests[file_name] != manifest.hash_of(file_name):
                    issues.append(ValidationIssue(
                        Severity.ERROR, point_uri, file_name, "hash-mismatch",
                        "file bytes do not match the manifest hash",
                    ))
                    usable.discard(file_name)
                    strict_fail = strict_fail or "hash-mismatch"

        if self.strict_manifests and strict_fail is not None:
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, MANIFEST_FILE, "point-discarded",
                f"strict mode discarded the point ({strict_fail})",
            ))
            return None
        return usable

    def _check_child_cert(
        self, point_uri, file_name, cert, ca_cert, crl, now, issues
    ) -> ResourceCertificate | None:
        if cert.issuer_key_id != ca_cert.subject_key_id:
            issues.append(ValidationIssue(
                Severity.WARNING, point_uri, file_name, "wrong-issuer",
                "certificate names a different issuer than this point's CA",
            ))
            return None
        if not self._verify(cert, ca_cert.subject_key):
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, file_name, "bad-signature",
                f"certificate for {cert.subject!r} fails signature check",
            ))
            return None
        if not cert.is_current(now):
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, file_name, "expired",
                f"certificate for {cert.subject!r} is outside its validity "
                f"window [{cert.not_before}, {cert.not_after}]",
            ))
            return None
        if crl is not None and crl.is_revoked(cert.serial):
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, file_name, "revoked",
                f"certificate serial {cert.serial} is on the issuer's CRL",
            ))
            return None
        if not ca_cert.ip_resources.covers(cert.ip_resources):
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, file_name, "overclaim",
                f"certificate for {cert.subject!r} claims resources its "
                "issuer does not hold",
            ))
            return None
        return cert

    def _roa_row(
        self, roa: RoaRead, digest: str, ca_cert: ResourceCertificate
    ) -> RoaRow:
        """Judge a ROA, step one: every check that ignores ``now`` and CRL.

        From its :func:`read_roa` (*digest* the SHA-256 hex of its
        bytes): no ``Roa``, ``EECertificate``, prefix or ROA resource set
        is built.  Both signatures are verified over the wire slices,
        through the memo, under the digests the objects would hash to;
        the ROA is covered by its EE certificate prefix by prefix.  The
        checks run in the order :meth:`_judge_roa` reports them and stop
        at the first failure; one that raises is recorded where it
        raised, as the ``object-quarantined`` issue containment would
        have made of it.
        """
        ee = roa.ee_cert
        failure, early = None, True
        try:
            if ee.issuer_key_id != ca_cert.subject_key_id:
                failure = (Severity.WARNING, "wrong-issuer",
                           "ROA's EE certificate names a different issuer")
            elif not self._verify_wire(sha256_hex(ee.wire), ee.wire,
                                       ee.signed_end, ca_cert.subject_key):
                failure = (Severity.ERROR, "ee-bad-signature",
                           "embedded EE certificate fails signature check")
            else:
                early = False
                if not ca_cert.ip_resources.covers(ee.ip_resources):
                    failure = (Severity.ERROR, "overclaim",
                               f"ROA {roa_of(roa).describe()} EE claims "
                               "resources the CA lacks")
                elif not self._verify_wire(digest, roa.wire, roa.signed_end,
                                           ee.subject_key):
                    failure = (Severity.ERROR, "roa-bad-signature",
                               "ROA fails signature check under its EE key")
                else:
                    covers = ee.ip_resources.covers_span
                    for afi, network, length, _ in roa.prefixes:
                        if not covers(afi, network, network
                                      | ((1 << (afi.bits - length)) - 1)):
                            failure = (Severity.ERROR, "roa-overclaim",
                                       "ROA names prefixes outside its EE "
                                       "certificate")
                            break
        except Exception as exc:
            failure = (Severity.ERROR, "object-quarantined",
                       f"{type(exc).__name__}: {exc}")
        asn = roa.asn
        asserted = () if failure is not None else tuple([
            VRP.from_integers(afi, network, length,
                              length if max_length < 0 else max_length, asn)
            for afi, network, length, max_length in roa.prefixes
        ])
        return RoaRow(asserted, ee.serial, ee.not_before, ee.not_after,
                      roa.not_before, roa.not_after, failure, early)

    def _judge_roa(
        self, row: RoaRow, copy: "_PointCopy", file_name, crl, now, issues
    ) -> bool:
        """Judge a ROA, step two: its row against *now* and the CRL.

        True if the ROA is accepted.  Otherwise reports the first failure
        in the order wrong-issuer, ee-bad-signature, expired, revoked,
        overclaim, roa-bad-signature, roa-overclaim.  Only the time and
        CRL texts name the ROA, so only they read it again.
        """
        failure = row.failure
        if failure is None or not row.early:
            start = max(row.ee_not_before, row.not_before)
            end = min(row.ee_not_after, row.not_after)
            code = None
            if not start <= now <= end:
                code = "expired"
                text = f"is outside its validity window [{start}, {end}]"
            elif crl is not None and crl.is_revoked(row.ee_serial):
                code, text = "revoked", f"EE serial {row.ee_serial} is revoked"
            if code is not None:
                roa = self._parse_file(copy, file_name)
                failure = (Severity.ERROR, code, f"ROA {roa.describe()} {text}")
        if failure is not None:
            severity, code, message = failure
            issues.append(ValidationIssue(
                severity, copy.uri, file_name, code, message,
            ))
            return False
        return True

    def _check_ghostbusters(
        self, point_uri, file_name, record, ca_cert, crl, now, issues
    ) -> GhostbustersRecord | None:
        """Validate a contact record: same EE discipline as a ROA."""
        ee = record.ee_cert
        if (
            ee.issuer_key_id != ca_cert.subject_key_id
            or not self._verify(ee, ca_cert.subject_key)
            or not self._verify(record, ee.subject_key)
        ):
            issues.append(ValidationIssue(
                Severity.WARNING, point_uri, file_name, "gbr-bad-signature",
                "ghostbusters record fails its signature chain",
            ))
            return None
        if not ee.is_current(now) or not record.is_current(now):
            issues.append(ValidationIssue(
                Severity.WARNING, point_uri, file_name, "gbr-expired",
                "ghostbusters record expired",
            ))
            return None
        if crl is not None and crl.is_revoked(ee.serial):
            issues.append(ValidationIssue(
                Severity.WARNING, point_uri, file_name, "gbr-revoked",
                "ghostbusters record EE certificate revoked",
            ))
            return None
        return record


class _PointCopy:
    """One cached copy of a publication point while it is being judged.

    Every file is hashed once, here; that digest then serves the
    manifest comparison, the parse memo's and the ROA rows' key and the
    parsed object's ``hash_hex``.  ``parsed`` holds what the judgement
    has opened so far, ``rows`` the ROA rows it judged.
    """

    __slots__ = ("uri", "files", "digests", "parsed", "rows")

    def __init__(self, uri: str, files: dict[str, bytes]):
        self.uri = uri
        self.files = files
        self.digests = {
            name: sha256_hex(data) for name, data in files.items()
        }
        self.parsed: dict[str, SignedObject] = {}
        self.rows: dict[str, RoaRow] = {}
