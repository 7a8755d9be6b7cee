"""Differential oracle: the typed readers vs the previous parse path.

``reference_parse.py`` next to this file is the parse path production
used until the schema-directed readers: generic decode, ``split_wire``,
dictionary, constructor field extraction, on the reference codec.  This
suite pins ``repro.rpki.parse_object`` to it four ways:

1. **Same objects** — every file and embedded EE certificate of a
   seeded world of the benchmark's shape, plus hand-built edge objects,
   parse to the same type with equal accessors, ``signed_bytes``,
   ``signature``, ``hash_hex``, ``payload`` and signature verdicts, and
   ``to_bytes()`` is the input.
2. **Same complaints** — every malformed-input class of
   ``tests/crypto/test_encoding_differential.py``, planted at the top
   level, in every payload field and inside the embedded EE
   certificate, is rejected by both with the same text.
3. **Never looser** — over seeded byte flips, truncation at every
   offset and splices, whatever production accepts the reference
   accepts, as the same object; whatever only production rejects is one
   of the named profile tightenings (``test_profile_tightening.py``,
   plus the SIA judgement of ``tests/rp/test_hostile_sia.py``).
4. **Canonical** — ``parse_object(b).to_bytes() == b`` for every
   accepted mutant.

And one check without the reference: **nothing but
``ObjectFormatError``** — every object of the Figure 2 world, re-signed
with one key, value or list element of its payload swapped for a value
of each CTLV kind, containers included, parses or is refused with
``ObjectFormatError``.  Byte noise almost never makes a well-formed
container where a scalar stood, so the swaps are made on the payload.

Everything is seeded; a failure prints what reproduces it.
"""

import dataclasses
import random

import pytest

from repro.crypto import KeyFactory, sha256_hex
from repro.modelgen import INTERNET_SCALES, build_deployment, build_figure2
from repro.resources import AsnRange, AsnSet, ResourceSet
from repro.rpki import (
    ObjectFormatError,
    RoaPrefix,
    RsyncUri,
    UriError,
    build_certificate,
    build_roa,
    parse_object,
)

from ..crypto.reference_codec import encode
from ..crypto.test_encoding_differential import MALFORMED_CLASSES
from . import reference_parse
from .reference_build import build_crl, build_manifest
from .forge import (
    NETWORK,
    HashableMap,
    build_ghostbusters,
    cert_bytes,
    crl_bytes,
    forge,
    roa_bytes,
)

SEED = 0xD1FF
FACTORY = KeyFactory(seed=SEED)
ISSUER, SUBJECT, EE = (FACTORY.next_keypair() for _ in range(3))

COMMON = ("serial", "issuer_key_id", "not_before", "not_after")
CERTIFICATE = COMMON + (
    "subject", "subject_key", "subject_key_id", "ip_resources",
    "as_resources", "sia", "sia_mirrors", "all_publication_uris", "crldp",
    "is_self_signed",
)
ACCESSORS = {
    "rc": CERTIFICATE,
    "ee": CERTIFICATE,
    "roa": COMMON + ("asn", "prefixes"),
    "crl": COMMON + ("revoked_serials", "this_update", "next_update"),
    "mft": COMMON + ("entries", "file_names", "this_update", "next_update"),
    "gbr": COMMON + ("vcard", "full_name"),
}


URI_ACCESSORS = ("sia", "sia_mirrors", "all_publication_uris")


def canonical_uris(value):
    """What the certificate reader keeps of the URIs the reference kept."""
    if isinstance(value, tuple):
        return tuple(map(canonical_uris, value))
    return str(RsyncUri.parse(value)) if value else value


def assert_same_object(blob: bytes, produced, reference) -> None:
    assert type(reference).__name__ == "Reference" + type(produced).__name__
    for name in ACCESSORS[produced.TYPE]:
        expected = getattr(reference, name)
        if name in URI_ACCESSORS:
            expected = canonical_uris(expected)
        elif name == "revoked_serials":
            # The reference keeps a set; the reader the ascending tuple.
            expected = tuple(sorted(expected))
        assert getattr(produced, name) == expected, name
    assert produced.to_bytes() == reference.to_bytes() == blob
    assert produced.signed_bytes == reference.signed_bytes
    assert produced.signature == reference.signature
    assert produced.hash_hex == reference.hash_hex == sha256_hex(blob)
    assert produced.payload == reference.payload
    for key in (ISSUER.public, EE.public):
        assert (produced.verify_signature(key)
                == reference.verify_signature(key))
    if produced.TYPE == "roa":
        assert produced.resources() == reference.resources()
        assert produced.describe() == reference.describe()
    if produced.TYPE in ("roa", "gbr"):
        assert_same_object(
            produced.ee_cert.to_bytes(), produced.ee_cert, reference.ee_cert
        )


def outcome(parser, blob: bytes):
    try:
        return parser(blob), None
    except ObjectFormatError as exc:
        return None, str(exc)


# -- the objects ---------------------------------------------------------------

def certificate(**overrides):
    fields = dict(
        issuer_key=ISSUER, issuer_key_id=ISSUER.key_id, subject="edge",
        subject_key=SUBJECT.public,
        ip_resources=ResourceSet.parse("63.160.0.0/12", "2001:db8::/32"),
        as_resources=AsnSet(map(AsnRange.single, (1239, 17054))),
        serial=7, not_before=0, not_after=1000,
        sia="rsync://edge.example/repo/",
        sia_mirrors=["rsync://mirror-a.example/edge/",
                     "rsync://mirror-b.example/edge/"],
        crldp="rsync://issuer.example/repo/ca.crl",
    )
    fields.update(overrides)
    return build_certificate(**fields)


def ee_certificate():
    return certificate(
        subject="edge-ee", subject_key=EE.public, as_resources=None,
        sia="", sia_mirrors=None, is_ca=False,
    )


def edge_objects(entries: int = 1024) -> dict[str, bytes]:
    """One hand-built object per type, each on its type's wide side."""
    ee = ee_certificate()
    signed = dict(ee_key=EE, ee_cert=ee, serial=8, not_before=0, not_after=500)
    objects = {
        "rc": certificate(),
        "ee": ee,
        "roa": build_roa(asn=1239, prefixes=[
            RoaPrefix.parse("63.160.0.0/12-13"),
            RoaPrefix.parse("63.174.16.0/20"),
            RoaPrefix.parse("2001:db8::/32-48"),
        ], **signed),
        "gbr": build_ghostbusters(vcard={
            "fn": "Edge Case", "org": "Edge", "email": "noc@edge.example",
            "tel": "+1 555 0100", "adr": "1 Edge Way",
        }, **signed),
        "crl": build_crl(
            issuer_key=ISSUER, issuer_key_id=ISSUER.key_id,
            revoked_serials={3, 9, 300, 70_000}, serial=2, this_update=10,
            next_update=20,
        ),
        "mft": build_manifest(
            issuer_key=ISSUER, issuer_key_id=ISSUER.key_id,
            entries={f"roa-{i}.roa": sha256_hex(b"%d" % i)
                     for i in range(entries)},
            serial=3, this_update=5, next_update=6,
        ),
    }
    return {name: obj.to_bytes() for name, obj in objects.items()}


@pytest.fixture(scope="module")
def world_blobs():
    world = build_deployment(dataclasses.replace(
        INTERNET_SCALES["internet-small"], isps_per_rir=1,
    ))
    return [
        ca.publication_point.get(name)
        for ca in world.authorities()
        for name in ca.publication_point.names()
    ]


class TestSameObjects:
    def test_bench_shaped_world(self, world_blobs):
        assert len(world_blobs) > 250
        types = set()
        for blob in world_blobs:
            produced = parse_object(blob)
            assert_same_object(
                blob, produced, reference_parse.parse_object(blob)
            )
            types.add(produced.TYPE)
        assert types == {"rc", "roa", "crl", "mft"}

    def test_edge_objects(self):
        for name, blob in edge_objects().items():
            produced = parse_object(blob)
            assert produced.TYPE == name
            assert_same_object(
                blob, produced, reference_parse.parse_object(blob)
            )

    def test_caller_digest_becomes_hash_hex(self):
        blob = edge_objects(entries=2)["roa"]
        assert parse_object(blob, "not-even-a-digest").hash_hex == (
            "not-even-a-digest"
        )
        assert parse_object(blob).hash_hex == sha256_hex(blob)


# -- planted malformations -----------------------------------------------------

class Raw(bytes):
    """Bytes an assembled tree carries verbatim in place of a value."""


def assemble(value) -> bytes:
    """``encode``, except that a :class:`Raw` leaf is not encoded."""
    if isinstance(value, Raw):
        return bytes(value)
    if isinstance(value, dict):
        body = b"".join(
            key + assemble(item) for key, item in sorted(
                (encode(key), item) for key, item in value.items()
            )
        )
        return b"M" + len(body).to_bytes(4, "big") + body
    if isinstance(value, list):
        body = b"".join(assemble(item) for item in value)
        return b"L" + len(body).to_bytes(4, "big") + body
    return encode(value)


def nested_lists(depth: int) -> bytes:
    body = b"N\x00\x00\x00\x00"
    for _ in range(depth):
        body = b"L" + len(body).to_bytes(4, "big") + body
    return body


PLANTED = MALFORMED_CLASSES + [("nesting_past_the_cap", nested_lists(65))]


def plantings(blob: bytes, malformed: bytes):
    """Every place *malformed* goes into the object *blob* encodes."""
    produced = parse_object(blob)
    payload, signature = produced.payload, produced.signature
    yield "whole object", malformed
    yield "payload slot", assemble([Raw(malformed), signature])
    yield "signature slot", assemble([payload, Raw(malformed)])
    yield "third item", assemble([payload, signature, Raw(malformed)])
    for field in payload:
        yield f"field {field}", assemble(
            [dict(payload, **{field: Raw(malformed)}), signature]
        )
    if "ee_cert" in payload:
        for where, planted in plantings(payload["ee_cert"], malformed):
            yield f"embedded {where}", assemble(
                [dict(payload, ee_cert=planted), signature]
            )


class TestSameComplaints:
    @pytest.mark.parametrize("name,malformed", PLANTED)
    def test_planted_class_rejected_with_the_same_text(self, name, malformed):
        sites = 0
        for type_name, blob in edge_objects(entries=2).items():
            for where, planted in plantings(blob, malformed):
                _, said = outcome(parse_object, planted)
                _, expected = outcome(reference_parse.parse_object, planted)
                context = f"{name} in {type_name} at {where}"
                assert said is not None, f"production accepted {context}"
                assert said == expected, context
                assert said.startswith("undecodable object: "), context
                sites += 1
        assert sites > 100

    def test_appended_bytes_are_trailing_bytes(self):
        for blob in edge_objects(entries=2).values():
            _, said = outcome(parse_object, blob + b"XY")
            assert said == "undecodable object: 2 trailing bytes after value"
            assert outcome(reference_parse.parse_object, blob + b"XY")[1] == said


# -- never looser --------------------------------------------------------------

INT, STR, BLOB = "integer", "string", "bytes"
RANGE3, RANGE2 = [INT, INT, INT], [INT, INT]
_COMMON = {"type": STR, "serial": INT, "issuer_key_id": STR,
           "not_before": INT, "not_after": INT}
_CERTIFICATE = dict(
    _COMMON, subject=STR, subject_key={"e": INT, "n": INT},
    subject_key_id=STR, ip_resources=(RANGE3,), as_resources=(RANGE2,),
    sia=STR, sia_mirrors=(STR,), crldp=STR,
)
# The profile, stated once more and independently of the readers: a
# 1-tuple is "list of", a list is "exactly these items", a dict is
# "exactly these keys", {STR: STR} is "any strings to strings".
SCHEMAS = {
    "rc": _CERTIFICATE,
    "ee": _CERTIFICATE,
    "roa": dict(_COMMON, asn=INT, prefixes=([RANGE3, INT],), ee_cert=BLOB),
    "crl": dict(_COMMON, revoked_serials=(INT,)),
    "mft": dict(_COMMON, entries={STR: STR}),
    "gbr": dict(_COMMON, vcard={STR: STR}, ee_cert=BLOB),
}
_PYTHON_TYPE = {INT: int, STR: str, BLOB: bytes}


def shape_violation(value, spec) -> str | None:
    """Which tightening *value* trips against *spec*, if any."""
    if isinstance(spec, str):
        if spec == INT and isinstance(value, bool):
            return "boolean-for-integer"
        return None if type(value) is _PYTHON_TYPE[spec] else "wrong-tag"
    if isinstance(spec, tuple):
        if not isinstance(value, list):
            return "wrong-tag"
        found = (shape_violation(item, spec[0]) for item in value)
    elif isinstance(spec, list):
        if not isinstance(value, list) or len(value) != len(spec):
            return "wrong-tag"
        found = map(shape_violation, value, spec)
    elif spec == {STR: STR}:
        if not isinstance(value, dict):
            return "wrong-tag"
        found = (shape_violation(item, STR)
                 for pair in value.items() for item in pair)
    else:
        if not isinstance(value, dict):
            return "wrong-tag"
        if set(value) - set(spec):
            return "unknown-key"
        if set(spec) - set(value):
            return "missing-key"
        found = (shape_violation(value[key], spec[key]) for key in spec)
    return next((problem for problem in found if problem), None)


def tightening(reference) -> str | None:
    """Why production may reject an object the reference accepted."""
    payload = reference.payload
    problem = shape_violation(payload, SCHEMAS[reference.TYPE])
    if problem is not None:
        return problem
    if reference.TYPE == "roa":
        if not payload["prefixes"]:
            return "zero-prefixes"
        if any(max_length < -1 for _, max_length in payload["prefixes"]):
            return "max-length-below-minus-one"
    if reference.TYPE == "crl":
        serials = payload["revoked_serials"]
        if any(later <= earlier for earlier, later in zip(serials, serials[1:])):
            return "crl-serials-not-ascending"
    if reference.TYPE in ("rc", "ee"):
        try:
            for uri in reference.all_publication_uris:
                RsyncUri.parse(uri)
        except UriError:
            return "hostile-sia"
    try:
        for name in ACCESSORS[reference.TYPE]:
            getattr(reference, name)
    except ValueError:
        # A value the accessor builds per call and the reader builds
        # once (an AS number out of range): surfaced late, like a
        # missing key.
        return "late-value-error"
    if reference.TYPE in ("roa", "gbr"):
        return tightening(reference.ee_cert)
    return None


def mutants(blob: bytes, other: bytes, rng: random.Random):
    for cut in range(len(blob)):
        yield f"truncated at {cut}", blob[:cut]
    for _ in range(160):
        index = rng.randrange(len(blob))
        flipped = blob[index] ^ (1 << rng.randrange(8))
        yield (f"bit flip at {index}",
               blob[:index] + bytes((flipped,)) + blob[index + 1:])
    for _ in range(60):
        start = rng.randrange(len(blob))
        end = min(len(blob), start + rng.randrange(1, 24))
        source = rng.randrange(len(other))
        patch = (rng.randbytes(end - start) if rng.random() < 0.5
                 else other[source:source + end - start])
        yield f"splice at {start}:{end}", blob[:start] + patch + blob[end:]


class TestNeverLooser:
    def test_mutants(self):
        rng = random.Random(SEED)
        samples = edge_objects(entries=2)
        accepted = only_production_rejects = 0
        for type_name, blob in samples.items():
            other = samples["rc" if type_name != "rc" else "roa"]
            for what, mutant in mutants(blob, other, rng):
                context = f"seed {SEED:#x}: {type_name} {what}"
                produced, _ = outcome(parse_object, mutant)
                reference, _ = outcome(reference_parse.parse_object, mutant)
                if produced is not None:
                    assert reference is not None, (
                        f"{context}: production accepted what the "
                        "reference rejects"
                    )
                    assert_same_object(mutant, produced, reference)
                    accepted += 1
                elif reference is not None:
                    assert tightening(reference) is not None, (
                        f"{context}: production rejected a "
                        f"{reference.TYPE} the reference accepts, and no "
                        "named tightening explains it"
                    )
                    only_production_rejects += 1
        # The mutator has to reach both interesting outcomes.
        assert accepted > 100
        assert only_production_rejects > 0

    def test_the_named_tightenings_are_what_the_classifier_says(self):
        from repro.modelgen import build_figure2
        from repro.resources import Afi

        world = build_figure2()
        ipv4 = Afi.IPV4.value
        cases = {
            "zero-prefixes": roa_bytes(world, prefixes=[]),
            "max-length-below-minus-one": roa_bytes(
                world, prefixes=[[[ipv4, NETWORK, 20], -7]]),
            "boolean-for-integer": roa_bytes(
                world, prefixes=[[[True, NETWORK, 20], 24]]),
            "unknown-key": cert_bytes(world, policy_qualifier="x"),
            "missing-key": cert_bytes(world, crldp=...),
            "wrong-tag": cert_bytes(world, serial="7"),
            "hostile-sia": cert_bytes(world, sia="http://evil.example/x"),
            "late-value-error": roa_bytes(world, asn=-5),
            "crl-serials-not-ascending": crl_bytes(world, [9, 3]),
        }
        for expected, blob in cases.items():
            assert outcome(parse_object, blob)[0] is None, expected
            reference = reference_parse.parse_object(blob)
            assert tightening(reference) == expected


# -- nothing but ObjectFormatError ---------------------------------------------

# One value of each CTLV kind, each hashable, so it can stand in for a
# key as well as for a value or an element.
KINDS = (None, True, False, 7, b"seven", "seven", (7,), HashableMap(seven=7))


def swaps(value):
    """Every copy of *value* with one key, value or element, at any
    depth, replaced by each of :data:`KINDS`."""
    if isinstance(value, dict):
        for key, item in value.items():
            others = {k: v for k, v in value.items() if k != key}
            for kind in KINDS:
                yield {**others, kind: item}
                yield {**value, key: kind}
            for inner in swaps(item):
                yield {**value, key: inner}
    elif isinstance(value, list):
        for index, item in enumerate(value):
            for kind in KINDS:
                yield [*value[:index], kind, *value[index + 1:]]
            for inner in swaps(item):
                yield [*value[:index], inner, *value[index + 1:]]


class TestOnlyObjectFormatError:
    def test_every_kind_in_every_payload_slot(self):
        world = build_figure2()
        objects = [parse_object(ca.publication_point.get(name))
                   for ca in world.authorities()
                   for name in ca.publication_point.names()]
        objects += [obj.ee_cert for obj in objects if obj.TYPE == "roa"]
        assert {obj.TYPE for obj in objects} == {
            "rc", "ee", "roa", "crl", "mft"}
        refusals = set()
        for obj in objects:
            for payload in swaps(obj.payload):
                _, said = outcome(parse_object, forge(payload, EE))
                refusals.add(said)
        assert "undecodable object: map key is a container" in refusals
        assert len(refusals) > 20
