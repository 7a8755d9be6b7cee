"""Differential oracle: a ROA's row read from wire vs the reference parse.

A relying party judges a new ROA straight from its bytes
(``read_roa`` → ``PathValidator._roa_row``): no ``Roa``, embedded
``EECertificate``, prefix or ROA resource set is built.  This suite pins
that row to the one :func:`object_row` — the judge of a parsed ``Roa``
the relying party used before, kept here as the oracle — makes of the
object the reference parser (``reference_parse.py``, which shares no
parsing code with production) builds from the same bytes — ``RoaRow``
for ``RoaRow``, failure text included, with the same signature checks
(count, memo hits and misses) — four ways:

1. every ROA of a seeded world of the benchmark's shape, under the
   certificate that issued it;
2. every malformed class planted in every ROA field and every field of
   the embedded EE certificate: rejected in the reference's words;
3. seeded truncations, bit flips and splices: never looser — what is
   read from wire the reference reads to an equal row, and what only
   production rejects is a named profile tightening;
4. ROAs forged to fail each check, reported as the object path does.

And a cold refresh of an honest world builds no ``Roa`` and no
``EECertificate`` at all.
"""

import dataclasses
import random

import pytest

from repro.modelgen import INTERNET_SCALES, build_deployment
from repro.repository import Fetcher
from repro.resources import ResourceSet
from repro.rp import PathValidator, RelyingParty
from repro.rp.incremental import RoaRow
from repro.rp.pathval import Severity
from repro.rp.vrp import VRP
from repro.rpki import (
    EECertificate,
    ObjectFormatError,
    Roa,
    RoaPrefix,
    SignedObject,
    build_roa,
    parse_object,
)
from repro.rpki.parse import class_of
from repro.rpki.roa import read_roa
from repro.crypto import KeyPair, RsaPrivateKey, RsaPublicKey, sha256_hex
from repro.telemetry import MetricsRegistry

from ..crypto.reference_codec import encode
from . import reference_parse
from .test_parse_differential import (
    EE,
    ISSUER,
    PLANTED,
    SEED,
    certificate,
    edge_objects,
    mutants,
    plantings,
    tightening,
)

def edge_ca():
    """The certificate of the authority the edge objects' EE names."""
    return certificate(subject="edge-ca", subject_key=ISSUER.public)


def judged(blob: bytes, ca_cert):
    """What the relying party makes of *blob* under *ca_cert*: the row of
    a ROA, the parse of anything else or the parse complaint, and the
    signature checks it took."""
    validator = PathValidator([ca_cert], metrics=MetricsRegistry())
    try:
        if class_of(blob) is Roa:
            outcome = validator._roa_row(read_roa(blob), sha256_hex(blob),
                                         ca_cert)
        else:
            outcome = parse_object(blob)
    except ObjectFormatError as exc:
        outcome = str(exc)
    return outcome, checks(validator)


def object_row(validator, roa, ca_cert) -> RoaRow:
    """The row of a parsed ROA: each check on the built objects, in the
    order ``PathValidator._judge_roa`` reports them, the first failure
    kept, one that raises recorded as containment would record it."""
    ee = roa.ee_cert
    failure, early = None, True
    try:
        if ee.issuer_key_id != ca_cert.subject_key_id:
            failure = (Severity.WARNING, "wrong-issuer",
                       "ROA's EE certificate names a different issuer")
        elif not validator._verify(ee, ca_cert.subject_key):
            failure = (Severity.ERROR, "ee-bad-signature",
                       "embedded EE certificate fails signature check")
        else:
            early = False
            if not ca_cert.ip_resources.covers(ee.ip_resources):
                failure = (Severity.ERROR, "overclaim",
                           f"ROA {roa.describe()} EE claims resources "
                           "the CA lacks")
            elif not validator._verify(roa, ee.subject_key):
                failure = (Severity.ERROR, "roa-bad-signature",
                           "ROA fails signature check under its EE key")
            elif not ee.ip_resources.covers(roa.resources()):
                failure = (Severity.ERROR, "roa-overclaim",
                           "ROA names prefixes outside its EE certificate")
    except Exception as exc:
        failure = (Severity.ERROR, "object-quarantined",
                   f"{type(exc).__name__}: {exc}")
    asserted = () if failure is not None else tuple(
        VRP(roa_prefix.prefix, roa_prefix.effective_max_length, roa.asn)
        for roa_prefix in roa.prefixes
    )
    return RoaRow(asserted, ee.serial, ee.not_before, ee.not_after,
                  roa.not_before, roa.not_after, failure, early)


def reference_judged(blob: bytes, ca_cert):
    """The object row of the reference parse of *blob*."""
    validator = PathValidator([ca_cert], metrics=MetricsRegistry())
    try:
        roa = reference_parse.parse_object(blob)
    except ObjectFormatError as exc:
        return str(exc), checks(validator)
    return object_row(validator, roa, ca_cert), checks(validator)


def checks(validator):
    memo = validator.incremental.verify_memo
    return validator._verify_calls, memo.hits, memo.misses


def assert_same_judgement(blob: bytes, ca_cert, context: str = ""):
    said = judged(blob, ca_cert)
    assert isinstance(said[0], (RoaRow, str)), context
    assert said == reference_judged(blob, ca_cert), context
    return said[0]


@pytest.fixture(scope="module")
def world_roas():
    world = build_deployment(dataclasses.replace(
        INTERNET_SCALES["internet-small"], isps_per_rir=1,
    ))
    return world, [
        (roa.to_bytes(), ca.certificate)
        for ca in world.authorities()
        for roa in ca.issued_roas.values()
    ]


class TestSameRows:
    def test_bench_shaped_world(self, world_roas):
        _, roas = world_roas
        assert len(roas) > 200
        for blob, ca_cert in roas:
            row = assert_same_judgement(blob, ca_cert)
            assert row.failure is None and row.vrps

    def test_edge_roa_on_both_families_with_and_without_max_length(self):
        row = assert_same_judgement(edge_objects(entries=2)["roa"], edge_ca())
        assert row.failure is None and len(row.vrps) == 3


class TestSameComplaints:
    @pytest.mark.parametrize("name,malformed", PLANTED)
    def test_planted_in_every_roa_and_embedded_ee_field(self, name, malformed):
        blob, ca_cert = edge_objects(entries=2)["roa"], edge_ca()
        sites = 0
        for where, planted in plantings(blob, malformed):
            said = assert_same_judgement(planted, ca_cert,
                                         f"{name} at {where}")
            assert isinstance(said, str), f"{name} at {where} accepted"
            sites += 1
        assert sites > 20


class TestNeverLooser:
    def test_mutants(self):
        rng = random.Random(SEED)
        samples = edge_objects(entries=2)
        blob, ca_cert = samples["roa"], edge_ca()
        rows = only_production_rejects = 0
        for what, mutant in mutants(blob, samples["rc"], rng):
            context = f"seed {SEED:#x}: roa {what}"
            said = judged(mutant, ca_cert)
            if isinstance(said[0], RoaRow):
                assert said == reference_judged(mutant, ca_cert), context
                rows += 1
            elif isinstance(said[0], SignedObject):
                # Bytes some other reader took: not a ROA's row.
                assert not isinstance(said[0], Roa), context
            else:
                try:
                    reference = reference_parse.parse_object(mutant)
                except ObjectFormatError:
                    continue
                assert tightening(reference) is not None, (
                    f"{context}: production rejected a {reference.TYPE} "
                    "the reference accepts, and no named tightening "
                    "explains it"
                )
                only_production_rejects += 1
        # Signature flips give failing rows, other flips rejects.
        assert rows > 50
        assert only_production_rejects > 0


# -- each check failing ----------------------------------------------------------

# A 256-bit key: too narrow for any SHA-256 signature, so no key pair of
# it can be generated (it is built here from its integers) and a
# certificate naming it is refused at read.
NARROW_KEY = KeyPair(RsaPrivateKey(RsaPublicKey((1 << 255) | 1), d=1))


def forged_roa(*, ee_key=EE, ee_signer=ISSUER, issuer_key_id=None,
               ee_resources="63.160.0.0/12", prefix="63.174.16.0/20",
               roa_signer=None) -> bytes:
    ee = certificate(
        issuer_key=ee_signer, issuer_key_id=issuer_key_id or ISSUER.key_id,
        subject="forged-ee", subject_key=ee_key.public, as_resources=None,
        ip_resources=ResourceSet.parse(ee_resources), sia="",
        sia_mirrors=None, is_ca=False,
    )
    payload = dict(
        build_roa(ee_key=EE, ee_cert=ee, asn=1239,
                  prefixes=[RoaPrefix.parse(prefix)], serial=8,
                  not_before=0, not_after=500).payload,
    )
    if roa_signer is None:
        return encode([payload, bytes(ee_key.public.modulus_bytes)])
    return encode([payload, roa_signer.sign(encode(payload))])


class TestEachCheck:
    CASES = {
        None: dict(roa_signer=EE),
        "wrong-issuer": dict(issuer_key_id="someone-else", roa_signer=EE),
        "ee-bad-signature": dict(ee_signer=EE, roa_signer=EE),
        "overclaim": dict(ee_resources="64.0.0.0/8", prefix="64.0.0.0/16",
                          roa_signer=EE),
        "roa-bad-signature": dict(roa_signer=ISSUER),
        "roa-overclaim": dict(prefix="64.0.0.0/16", roa_signer=EE),
        # A key too narrow for the padding made its check raise.  No
        # input reaches that any more: both readers refuse the key.
        "object-quarantined": dict(ee_key=NARROW_KEY),
    }

    @pytest.mark.parametrize("code", list(CASES), ids=str)
    def test_reported_as_the_object_path_reports_it(self, code):
        blob = forged_roa(**self.CASES[code])
        if code == "object-quarantined":
            said = judged(blob, edge_ca())
            reference = reference_judged(blob, edge_ca())
            assert "RSA modulus" in said[0] and "RSA modulus" in reference[0]
            assert said[1] == reference[1] == (0, 0, 0)  # nothing checked
            return
        row = assert_same_judgement(blob, edge_ca(), str(code))
        assert (row.failure and row.failure[1]) == code
        assert row.vrps == (() if code else row.vrps)


def test_a_cold_honest_refresh_builds_no_roa_and_no_ee(world_roas,
                                                        monkeypatch):
    world, roas = world_roas
    built, fill = [], SignedObject._fill

    def counted(obj, *args):
        built.append(type(obj))
        return fill(obj, *args)

    monkeypatch.setattr(SignedObject, "_fill", counted)
    rp = RelyingParty(world.trust_anchors, Fetcher(world.registry,
                                                   world.clock),
                      metrics=MetricsRegistry())
    run = rp.refresh().run
    assert run.errors() == [] and run.roa_count == len(roas)
    assert Roa not in built and EECertificate not in built
    assert len(built) > len(world.authorities())       # CRLs, manifests, RCs
    assert all(class_of(blob) is Roa for blob, _ in roas)
