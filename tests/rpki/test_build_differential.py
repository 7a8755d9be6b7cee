"""The schema-directed writer against the dict-and-encode oracle.

Every builder in ``repro.rpki`` writes an object from the values in hand
(``repro.rpki.objects.build_signed``); ``reference_build`` is the path
it replaced: a payload dictionary through the generic encoder, read back.
For the same values both must give the same bytes, and the object the
writer fills must hold exactly what a reader of those bytes finds.  The
authority's own CRL and manifest, joined from entries it keeps encoded,
are pinned to the oracle over a seeded run of mutations.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import KeyFactory, sha256_hex
from repro.resources import AddressRange, Afi, AsnRange, AsnSet, Prefix, ResourceSet
from repro.rpki import (
    CRL_FILE,
    MANIFEST_FILE,
    CertificateAuthority,
    Crl,
    Manifest,
    RoaPrefix,
    build_certificate,
    build_roa,
    parse_object,
)
from repro.rpki.objects import SignedObject, build_signed
from repro.simtime import Clock

from . import reference_build
from .forge import build_ghostbusters, str_map

FACTORY = KeyFactory(seed=3_838)
ISSUER, SUBJECT, EE = (FACTORY.next_keypair() for _ in range(3))
EXAMPLES = settings(max_examples=30, deadline=None)

serials = st.integers(min_value=0, max_value=2**160) | st.sampled_from(
    [0, 127, 128, 255, 256, 2**31, 2**63, 2**159])
times = st.integers(min_value=0, max_value=2**40)
texts = st.text(max_size=24)   # non-ASCII, empty and NUL included


@st.composite
def windows(draw):
    start = draw(times)
    return start, start + draw(st.integers(min_value=0, max_value=2**32))


@st.composite
def uris(draw):
    """rsync URIs, canonical or not (no trailing slash, doubled slashes)."""
    host = draw(st.from_regex(r"[a-z0-9.-]{1,12}", fullmatch=True))
    path = draw(st.from_regex(r"[a-zA-Z0-9_/-]{0,16}", fullmatch=True))
    return f"rsync://{host}/{path}"


@st.composite
def prefixes(draw):
    afi = draw(st.sampled_from(Afi))
    length = draw(st.integers(min_value=0, max_value=afi.bits))
    network = draw(st.integers(min_value=0, max_value=2**length - 1))
    return Prefix(afi, network << (afi.bits - length), length)


@st.composite
def resource_sets(draw):
    ranges = []
    for afi in draw(st.lists(st.sampled_from(Afi), max_size=6)):
        start = draw(st.integers(min_value=0, max_value=afi.max_address))
        end = draw(st.integers(min_value=start, max_value=afi.max_address))
        ranges.append(AddressRange(afi, start, end))
    return ResourceSet(ranges)


@st.composite
def asn_sets(draw):
    ranges = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        start = draw(st.integers(min_value=0, max_value=2**32 - 1))
        end = draw(st.integers(min_value=start, max_value=2**32 - 1))
        ranges.append(AsnRange(start, end))
    return draw(st.sampled_from([AsnSet(ranges), None]))


@st.composite
def roa_prefixes(draw):
    prefix = draw(prefixes())
    max_length = draw(st.none() | st.integers(
        min_value=prefix.length, max_value=prefix.afi.bits))
    return RoaPrefix(prefix, max_length)


@st.composite
def certificate_values(draw, *, is_ca):
    not_before, not_after = draw(windows())
    return dict(
        issuer_key=ISSUER,
        issuer_key_id=draw(texts),
        subject=draw(texts),
        subject_key=SUBJECT.public,
        ip_resources=draw(resource_sets()),
        as_resources=draw(asn_sets()),
        serial=draw(serials),
        not_before=not_before,
        not_after=not_after,
        sia=draw(uris()) if is_ca else draw(st.sampled_from(["", "rsync://h/x/"])),
        sia_mirrors=draw(st.lists(uris(), max_size=3)),
        crldp=draw(texts),
        is_ca=is_ca,
    )


def ee_certificate(draw):
    values = draw(certificate_values(is_ca=False))
    values["subject_key"] = EE.public
    return build_certificate(**values)


def assert_same(built, reference):
    """Same bytes as the oracle, and the fields a reader finds in them."""
    assert built.to_bytes() == reference.to_bytes()
    parsed = parse_object(built.to_bytes())
    assert type(built) is type(parsed) is type(reference)
    for slot in type(built)._FIELDS:
        mine, read = getattr(built, slot), getattr(parsed, slot)
        assert mine == read, slot
        if isinstance(read, dict):      # in the reader's (canonical) order
            assert list(mine.items()) == list(read.items()), slot
    assert built.hash_hex == parsed.hash_hex == sha256_hex(built.to_bytes())
    assert built.signed_bytes == parsed.signed_bytes
    assert built.payload == reference.payload


@given(st.data(), st.booleans())
@EXAMPLES
def test_certificates(data, is_ca):
    values = data.draw(certificate_values(is_ca=is_ca))
    assert_same(build_certificate(**values),
                reference_build.build_certificate(**values))


@given(st.data())
@EXAMPLES
def test_roas(data):
    ee_cert = ee_certificate(data.draw)
    not_before, not_after = data.draw(windows())
    values = dict(
        ee_key=EE, ee_cert=ee_cert,
        asn=data.draw(st.integers(min_value=0, max_value=2**32 - 1)),
        prefixes=data.draw(st.lists(roa_prefixes(), min_size=1, max_size=8)),
        serial=data.draw(serials), not_before=not_before, not_after=not_after,
    )
    roa = build_roa(**values)
    assert_same(roa, reference_build.build_roa(**values))
    assert roa.ee_cert is ee_cert


@given(st.sets(serials, max_size=400), serials, windows())
@EXAMPLES
def test_crls(revoked, serial, window):
    values = dict(issuer_key=ISSUER, issuer_key_id="k", revoked_serials=revoked,
                  serial=serial, this_update=window[0], next_update=window[1])
    crl = build_signed(Crl, ISSUER, dict(
        serial=serial, issuer_key_id="k", revoked_serials=tuple(sorted(revoked)),
        not_before=window[0], not_after=window[1]))
    assert_same(crl, reference_build.build_crl(**values))


file_names = st.text(min_size=1, max_size=16) | st.sampled_from(
    ["ca.crl", "ca.gbr", "roa-10.roa", "roa-9.roa", "a.cer", "ab.cer"])


@given(st.dictionaries(file_names, st.text(max_size=64), max_size=60),
       serials, windows())
@EXAMPLES
def test_manifests(entries, serial, window):
    values = dict(issuer_key=ISSUER, issuer_key_id="k", entries=entries,
                  serial=serial, this_update=window[0], next_update=window[1])
    manifest = build_signed(Manifest, ISSUER, dict(
        serial=serial, issuer_key_id="k", entries=str_map(entries),
        not_before=window[0], not_after=window[1]))
    assert_same(manifest, reference_build.build_manifest(**values))


@given(st.data(), st.dictionaries(
    st.sampled_from(["org", "email", "tel", "adr"]), texts))
@EXAMPLES
def test_ghostbusters_records(data, optional):
    ee_cert = ee_certificate(data.draw)
    not_before, not_after = data.draw(windows())
    vcard = {**optional, "fn": data.draw(texts)}
    values = dict(ee_key=EE, ee_cert=ee_cert, vcard=vcard,
                  serial=data.draw(serials), not_before=not_before,
                  not_after=not_after)
    record = build_ghostbusters(**values)
    assert_same(record, reference_build.build_ghostbusters(**values))
    assert record.ee_cert is ee_cert


def test_every_schema_row_has_a_reader_and_a_writer():
    pending, types = [SignedObject], []
    while pending:
        cls = pending.pop()
        pending += cls.__subclasses__()
        if cls._SCHEMA is not None:
            types.append(cls.TYPE)
            type_row, *rows = sorted(cls._SCHEMA, key=lambda row: row[2] is not None)
            assert type_row[2] is type_row[3] is None
            for key, _size, read, write, name, slot in rows:
                assert callable(read) and callable(write), (cls.TYPE, name)
                assert slot == "_" + name and slot in cls._FIELDS
    assert sorted(types) == ["crl", "ee", "gbr", "mft", "rc", "roa"]


def test_the_authority_crl_and_manifest_match_the_oracle():
    """Issue, revoke, delete and overwrite at random; after every publish
    the point's CRL and manifest are the oracle's over the same values."""
    rng = random.Random(38)
    clock = Clock()
    root = CertificateAuthority.create_trust_anchor(
        handle="root", ip_resources=ResourceSet.parse("10.0.0.0/8"),
        clock=clock, key_factory=KeyFactory(seed=3_839))
    child = root.issue_child_authority("child", ResourceSet.parse("10.1.0.0/16"))
    point = root.publication_point
    for step in range(60):
        clock.advance(rng.randrange(1, 100))
        names = sorted(root.issued_roas)
        action = rng.randrange(6)
        if action == 0 and names:
            root.revoke_roa(rng.choice(names))
        elif action == 1 and names:
            root.delete_object(rng.choice(names))
        elif action == 2:
            root.overwrite_child_cert(child.key_id, ResourceSet.parse(
                rng.choice(["10.1.0.0/16", "10.1.0.0/17"])))
        else:
            name = rng.choice([None, f"r{step}.roa", "x" * rng.randrange(1, 30)])
            root.issue_roa(64_500 + step, f"10.{step}.0.0/16", name=name,
                           ee_key=EE)
        crl = parse_object(point.get(CRL_FILE))
        manifest = parse_object(point.get(MANIFEST_FILE))
        assert crl.to_bytes() == reference_build.build_crl(
            issuer_key=root.key, issuer_key_id=root.key_id,
            revoked_serials=set(root._revoked_serials), serial=crl.serial,
            this_update=crl.this_update, next_update=crl.next_update,
        ).to_bytes()
        listed = {name: sha256_hex(point.get(name))
                  for name in point.names() if name != MANIFEST_FILE}
        assert manifest.to_bytes() == reference_build.build_manifest(
            issuer_key=root.key, issuer_key_id=root.key_id, entries=listed,
            serial=manifest.serial, this_update=manifest.this_update,
            next_update=manifest.next_update,
        ).to_bytes()
    assert len(crl.revoked_serials) > 5 and len(manifest.entries) > 10
