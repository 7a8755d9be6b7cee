"""Six payload shapes no builder emits, now rejected on purpose.

The generic decode-then-extract path (kept as ``reference_parse.py``)
accepted each of these, by accident of how dictionaries and enums
behave.  RFC 6482/6487 reject an object with unknown or malformed
fields, and a schema-directed reader has to decide either way — so each
is an :class:`ObjectFormatError` naming the field, the file becomes one
``parse-failed`` issue, and its siblings validate.  Every test records
the previous behaviour in its docstring and checks it against the
reference; ``test_parse_differential.py`` names these six as the only
ways production may reject what the reference accepts.  (The sixth, a
CRL whose serials are not strictly ascending, has its own reason: the
reader keeps the serials in the order given and searches them, so that
validation never hashes an integer the issuer chose —
``tests/test_hash_flooding.py``.)
"""

import pytest

from repro.modelgen import build_figure2
from repro.repository import Fetcher
from repro.resources import Afi
from repro.rp import RelyingParty
from repro.rpki import CRL_FILE, ObjectFormatError, parse_object

from . import reference_parse
from .forge import NETWORK, cert_bytes, crl_bytes, publish_forged, roa_bytes

CONTINENTAL = "rsync://continental.example/repo/"


@pytest.fixture(scope="module")
def world():
    return build_figure2()


def rejected(blob: bytes, field: str) -> str:
    with pytest.raises(ObjectFormatError) as caught:
        parse_object(blob)
    assert field in str(caught.value)
    return str(caught.value)


def test_baseline_forgeries_are_well_formed(world):
    # The helpers themselves produce objects both parsers accept, so
    # each rejection below is down to the one change it makes.
    for blob in (roa_bytes(world), cert_bytes(world)):
        assert parse_object(blob).to_bytes() == blob
        assert reference_parse.parse_object(blob).to_bytes() == blob


def test_roa_with_zero_prefixes(world):
    """Was: parsed (``build_roa`` refuses to make one, the parser did
    not mind) and validated into an evidence row asserting no VRPs."""
    blob = roa_bytes(world, prefixes=[])
    assert reference_parse.parse_object(blob).prefixes == ()
    assert "at least one prefix" in rejected(blob, "'prefixes'")


def test_roa_max_length_below_minus_one(world):
    """Was: any negative maxLength read as "unspecified", so ``-7`` and
    ``-1`` were two encodings of one meaning."""
    blob = roa_bytes(world, prefixes=[[[Afi.IPV4.value, NETWORK, 20], -7]])
    assert reference_parse.parse_object(blob).prefixes[0].max_length is None
    assert "maxLength -7" in rejected(blob, "'prefixes'")


def test_boolean_where_an_integer_is_declared(world):
    """Was: accepted — ``Afi(True) is Afi.IPV4`` and ``True == 1``, so a
    boolean address family was a second byte string for IPv4."""
    blob = roa_bytes(world, prefixes=[[[True, NETWORK, 20], 24]])
    reference = reference_parse.parse_object(blob)
    assert reference.prefixes[0].prefix.afi is Afi.IPV4
    assert "expected an integer, found a boolean" in rejected(
        blob, "'prefixes'"
    )


def test_unknown_extra_key(world):
    """Was: silently ignored — the object parsed and validated as if the
    key were absent, while its signature covered it."""
    blob = cert_bytes(world, policy_qualifier="anything")
    assert reference_parse.parse_object(blob).subject == "ETB S.A. ESP."
    assert "policy_qualifier" in rejected(blob, "key")


@pytest.mark.parametrize("changes,field", [
    (dict(crldp=...), "crldp"),          # missing key
    (dict(serial="7"), "'serial'"),      # wrong-tag field
])
def test_missing_key_or_wrong_tag_field(world, changes, field):
    """Was: parsed, then surfaced late — a lazy ``KeyError`` from the
    accessor (``object-quarantined`` if validation happened to read it,
    nothing at all if it did not), or a string compared with integers."""
    blob = cert_bytes(world, **changes)
    reference = reference_parse.parse_object(blob)
    if "crldp" in changes:
        with pytest.raises(KeyError):
            reference.crldp
    else:
        assert reference.serial == "7"
    rejected(blob, field)


@pytest.mark.parametrize("serials", [[9, 3], [3, 9, 9]])
def test_crl_serials_out_of_order_or_repeated(world, serials):
    """Was: any order, any repeats — the reader made a frozenset."""
    assert parse_object(crl_bytes(world, [3, 9])).is_revoked(9)
    blob = crl_bytes(world, serials)
    assert reference_parse.parse_object(blob).revoked_serials == {3, 9}
    assert "not strictly ascending" in rejected(blob, "'revoked_serials'")


def test_unsorted_crl_is_one_issue_at_its_own_point():
    world = build_figure2()
    publish_forged(world.continental, {CRL_FILE: crl_bytes(world, [9, 3])})
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock)
    )
    report = rp.refresh()
    assert [(i.point_uri, i.file_name, i.code) for i in report.run.errors()
            ] == [(CONTINENTAL, CRL_FILE, "crl-parse-failed")]
    # Nothing changes verdict: an unreadable CRL revokes nothing.
    assert len(rp.vrps) == 8


def test_each_is_one_parse_failed_issue_and_siblings_validate():
    world = build_figure2()
    forged = {
        "zero-prefixes.roa": roa_bytes(world, prefixes=[]),
        "low-maxlength.roa": roa_bytes(
            world, prefixes=[[[Afi.IPV4.value, NETWORK, 20], -7]]),
        "boolean-afi.roa": roa_bytes(
            world, prefixes=[[[True, NETWORK, 20], 24]]),
    }
    publish_forged(world.continental, forged)
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock)
    )
    report = rp.refresh()
    assert sorted(
        (i.point_uri, i.file_name, i.code) for i in report.run.errors()
    ) == sorted((CONTINENTAL, name, "parse-failed") for name in forged)
    assert len(rp.vrps) == 8
