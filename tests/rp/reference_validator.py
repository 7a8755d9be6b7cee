"""A second relying party, written to be read: the cold oracle.

``repro.rp.PathValidator`` keeps memos, ROA rows and replayed point
results and walks the certificate tree level by level.  Comparing it
with a cold run of itself proves the *state* harmless but not the
*judgement*: both sides call the same checks, so a check they share can
be wrong on both.  This module reaches the same verdicts a second way:

- objects are parsed only through ``tests/rpki/reference_parse.py`` (the
  previous parser, on the reference codec) and held to the profile the
  shipped readers enforce, as ``test_parse_differential.tightening``
  states it;
- nothing comes from ``repro.rp.pathval``, ``repro.rp.walk`` or
  ``repro.rp.incremental``;
- the tree is walked by recursive descent from the trust anchors, with
  no memo, no rows, no replay, no time signature and no worklist;
- a publication point is judged by straight-line checks: copy selection,
  CRL, manifest, then each object with its checks in the order the
  shipped validator reports them (for a ROA: wrong-issuer,
  ee-bad-signature, expired, revoked, overclaim, roa-bad-signature,
  roa-overclaim).

:func:`validate` answers with what a relying party's verdicts come down
to — the VRP set, per publication point the evidence its accepted ROAs
left as ``(file, EE serial, ROA not_after, VRPs)``, and the multiset of
``(point_uri, file_name, code)`` issues.  Issue texts and severities are
not compared.  ``test_reference_differential.py`` pins the shipped
validator to it, projecting those four fields out of each ROA row.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.crypto import sha256_hex
from repro.rp.vrp import VRP
from repro.rpki import CRL_FILE, MANIFEST_FILE, ObjectFormatError, RsyncUri

from ..rpki import reference_parse
from ..rpki.reference_parse import (
    ReferenceCrl,
    ReferenceGhostbustersRecord,
    ReferenceManifest,
    ReferenceResourceCertificate,
    ReferenceRoa,
)
from ..rpki.test_parse_differential import tightening

# Certificates this far below a trust anchor are listed, never walked.
MAX_DEPTH = 32


@dataclass
class ReferenceRun:
    """The verdicts of one cold validation."""

    vrps: frozenset = frozenset()
    # (selected point URI, ((file, EE serial, ROA not_after, VRPs), ...))
    # per walked point, in walk order.
    roas: list = field(default_factory=list)
    issues: Counter = field(default_factory=Counter)
    # Publication URI (mirrors too) -> hash of the CRL its CA's point was
    # judged against, for every walked point that had one.
    crls: dict = field(default_factory=dict)


def parse(blob: bytes):
    """The reference parse of *blob*, refusing what the profile refuses."""
    obj = reference_parse.parse_object(blob)
    problem = tightening(obj)
    if problem is not None:
        raise ObjectFormatError(problem)
    return obj


def canonical(uri: str) -> str:
    return str(RsyncUri.parse(uri)) if uri else uri


def validate(
    trust_anchors, snapshot: dict[str, dict[str, bytes]], now: int,
    *, strict_manifests: bool = False,
) -> ReferenceRun:
    """Validate *snapshot* (point URI → file name → bytes) at *now*."""
    run = ReferenceRun()
    walked: set[str] = set()  # subject key ids whose point was judged

    def descend(ca, depth: int) -> None:
        if depth > MAX_DEPTH:
            run.issues[(canonical(ca.sia), "", "depth-exceeded")] += 1
            return
        if ca.subject_key_id in walked:
            return  # one key, one walk (self-recertification loops)
        walked.add(ca.subject_key_id)
        try:
            point_uri, issues, evidence, children, crl = judge_point(
                ca, snapshot, now, strict_manifests
            )
        except Exception:
            point_uri, evidence, children, crl = canonical(ca.sia), (), [], None
            issues = [(point_uri, "", "point-quarantined")]
        run.issues.update(issues)
        run.roas.append((point_uri, tuple(evidence)))
        if crl is not None:
            run.crls.update(dict.fromkeys(ca.all_publication_uris, crl.hash_hex))
        for child in children:
            descend(child, depth + 1)

    for anchor in trust_anchors:
        ta = parse(anchor.to_bytes())
        if not ta.is_self_signed or not ta.verify_signature(ta.subject_key):
            run.issues[(canonical(ta.sia), "", "ta-bad-signature")] += 1
        elif not ta.is_current(now):
            run.issues[(canonical(ta.sia), "", "ta-expired")] += 1
        else:
            descend(ta, 0)
    run.vrps = frozenset(
        vrp for _, evidence in run.roas for row in evidence for vrp in row[3]
    )
    return run


def assert_agrees(
    run, trust_anchors, snapshot, now: int, *, strict_manifests=False
) -> None:
    """Fail unless the ``ValidationRun`` *run* reaches :func:`validate`'s
    verdicts on the same snapshot."""
    reference = validate(trust_anchors, snapshot, now,
                         strict_manifests=strict_manifests)
    assert run.vrps.as_frozenset() == reference.vrps
    assert [
        (point, tuple((file_name, row.ee_serial, row.not_after, row.vrps)
                      for file_name, row in rows))
        for point, rows in run.roas
    ] == reference.roas
    assert {uri: crl.hash_hex for uri, crl in run.crls.items()} \
        == reference.crls
    assert Counter((issue.point_uri, issue.file_name, issue.code)
                   for issue in run.issues) == reference.issues


def consistent(files: dict[str, bytes], ca, now: int) -> bool:
    """A copy whose manifest is valid, current and matches every file."""
    if MANIFEST_FILE not in files:
        return False
    try:
        manifest = parse(files[MANIFEST_FILE])
    except Exception:
        return False
    names = set(files) - {MANIFEST_FILE}
    return (
        isinstance(manifest, ReferenceManifest)
        and manifest.verify_signature(ca.subject_key)
        and now <= manifest.next_update
        and manifest.file_names == names
        and all(sha256_hex(files[name]) == manifest.hash_of(name)
                for name in names)
    )


def judge_point(ca, snapshot, now, strict_manifests):
    """One CA's publication point: ``(selected URI, issues, ROA evidence,
    accepted child certificates, the CRL judged against or None)``."""
    sia = canonical(ca.sia)
    issues: list[tuple[str, str, str]] = []
    present = [canonical(uri) for uri in ca.all_publication_uris
               if canonical(uri) in snapshot]
    if not present:
        return sia, [(sia, "", "point-missing")], [], [], None
    point = next((uri for uri in present
                  if consistent(snapshot[uri], ca, now)), present[0])
    if point != sia:
        issues.append((sia, "", "using-mirror"))
    files = snapshot[point]

    def issue(file_name: str, code: str) -> None:
        issues.append((point, file_name, code))

    # The CRL: present, parseable, signed by this CA; stale still counts.
    crl = None
    if CRL_FILE not in files:
        issue(CRL_FILE, "crl-missing")
    else:
        try:
            parsed = parse(files[CRL_FILE])
        except Exception:
            issue(CRL_FILE, "crl-parse-failed")
        else:
            if (not isinstance(parsed, ReferenceCrl)
                    or not parsed.verify_signature(ca.subject_key)):
                issue(CRL_FILE, "crl-bad-signature")
            else:
                crl = parsed
                if crl.next_update < now:
                    issue(CRL_FILE, "crl-stale")

    # The manifest: which files to use, and whether strict mode gives up.
    usable = set(files) - {MANIFEST_FILE}
    trouble = False
    manifest = None
    if MANIFEST_FILE not in files:
        issue(MANIFEST_FILE, "manifest-missing")
        trouble = True
    else:
        try:
            manifest = parse(files[MANIFEST_FILE])
        except Exception:
            manifest = None
        if (not isinstance(manifest, ReferenceManifest)
                or not manifest.verify_signature(ca.subject_key)):
            issue(MANIFEST_FILE, "manifest-bad")
            manifest, trouble = None, True
    if manifest is not None:
        if manifest.next_update < now:
            issue(MANIFEST_FILE, "manifest-stale")
            trouble = True
        for name in sorted(manifest.file_names - usable):
            issue(name, "manifest-file-missing")
            trouble = True
        for name in sorted(usable - manifest.file_names):
            issue(name, "manifest-file-extra")
        for name in sorted(usable & manifest.file_names):
            if sha256_hex(files[name]) != manifest.hash_of(name):
                issue(name, "hash-mismatch")
                usable.discard(name)
                trouble = True
    if strict_manifests and trouble:
        issue(MANIFEST_FILE, "point-discarded")
        return point, issues, [], [], crl

    evidence, children = [], []
    for name in sorted(usable - {CRL_FILE}):
        try:
            obj = parse(files[name])
        except ObjectFormatError:
            issue(name, "parse-failed")
            continue
        except Exception:
            issue(name, "object-quarantined")
            continue
        try:
            if isinstance(obj, ReferenceRoa):
                code = roa_failure(obj, ca, crl, now)
                if code is None:
                    evidence.append((
                        name, obj.ee_cert.serial, obj.not_after,
                        tuple(VRP(p.prefix, p.effective_max_length, obj.asn)
                              for p in obj.prefixes),
                    ))
            elif isinstance(obj, ReferenceResourceCertificate):
                code = certificate_failure(obj, ca, crl, now)
                if code is None:
                    children.append(obj)
            elif isinstance(obj, ReferenceGhostbustersRecord):
                code = ghostbusters_failure(obj, ca, crl, now)
            else:
                code = "unexpected-type"
        except Exception:
            code = "object-quarantined"
        if code is not None:
            issue(name, code)
    return point, issues, evidence, children, crl


def roa_failure(roa, ca, crl, now: int) -> str | None:
    ee = roa.ee_cert
    if ee.issuer_key_id != ca.subject_key_id:
        return "wrong-issuer"
    if not ee.verify_signature(ca.subject_key):
        return "ee-bad-signature"
    if not (ee.is_current(now) and roa.is_current(now)):
        return "expired"
    if crl is not None and crl.is_revoked(ee.serial):
        return "revoked"
    if not ca.ip_resources.covers(ee.ip_resources):
        return "overclaim"
    if not roa.verify_signature(ee.subject_key):
        return "roa-bad-signature"
    if not ee.ip_resources.covers(roa.resources()):
        return "roa-overclaim"
    return None


def certificate_failure(cert, ca, crl, now: int) -> str | None:
    if cert.issuer_key_id != ca.subject_key_id:
        return "wrong-issuer"
    if not cert.verify_signature(ca.subject_key):
        return "bad-signature"
    if not cert.is_current(now):
        return "expired"
    if crl is not None and crl.is_revoked(cert.serial):
        return "revoked"
    if not ca.ip_resources.covers(cert.ip_resources):
        return "overclaim"
    return None


def ghostbusters_failure(record, ca, crl, now: int) -> str | None:
    ee = record.ee_cert
    if (ee.issuer_key_id != ca.subject_key_id
            or not ee.verify_signature(ca.subject_key)
            or not record.verify_signature(ee.subject_key)):
        return "gbr-bad-signature"
    if not (ee.is_current(now) and record.is_current(now)):
        return "gbr-expired"
    if crl is not None and crl.is_revoked(ee.serial):
        return "gbr-revoked"
    return None
