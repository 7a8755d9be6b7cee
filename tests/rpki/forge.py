"""Hand-forged wire bytes: what a misbehaving authority can publish.

The builders in :mod:`repro.rpki` only make well-formed objects, and the
typed constructors refuse anything else — but an authority signs with
its *own* key whatever bytes it likes.  These helpers make such bytes
(any payload dictionary, validly signed) and put them on a CA's
publication point under a manifest that vouches for them.  No authority
publishes a Ghostbusters record (RFC 6493), so the records a relying
party judges are made here too.
"""

from __future__ import annotations

from repro.crypto import KeyFactory, KeyPair, sha256_hex
from repro.crypto.encoding import write_str
from repro.resources import Afi, ResourceSet
from repro.rpki import (
    CRL_FILE,
    MANIFEST_FILE,
    CertificateAuthority,
    EECertificate,
    GhostbustersRecord,
    build_certificate,
    parse_object,
)
from repro.rpki.objects import build_signed
from repro.simtime import DAY, YEAR

from ..crypto.reference_codec import encode
from .reference_build import build_manifest

NETWORK = (63 << 24) | (174 << 16) | (16 << 8)     # 63.174.16.0
GHOSTBUSTERS_FILE = "ca.gbr"

_EE_KEY = KeyFactory(seed=777).next_keypair()


class HashableMap(dict):
    """A map that can be a map key, which no payload dictionary allows:
    encoded like any map, hashed by identity."""

    __hash__ = object.__hash__


def forge(payload: dict, key: KeyPair) -> bytes:
    """Canonical ``[payload, signature]`` bytes, signed with *key*."""
    return encode([payload, key.sign(encode(payload))])


def reforge(obj, key: KeyPair, **changes) -> bytes:
    """*obj*'s payload with *changes* applied, re-signed with *key*.

    A value of ``...`` deletes the key.
    """
    payload = obj.payload
    for name, value in changes.items():
        if value is ...:
            del payload[name]
        else:
            payload[name] = value
    return forge(payload, key)


def publish_forged(ca: CertificateAuthority, files: dict[str, bytes]) -> None:
    """Write *files* onto *ca*'s point and re-sign its manifest over them."""
    point = ca.publication_point
    for name, data in files.items():
        point.put(name, data)
    entries = {
        name: sha256_hex(point.get(name))
        for name in point.names() if name != MANIFEST_FILE
    }
    old = ca.publication_point.get(MANIFEST_FILE)
    now = ca._clock.now
    manifest = build_manifest(
        issuer_key=ca.key, issuer_key_id=ca.key_id, entries=entries,
        serial=10_000 + len(old or b""), this_update=now,
        next_update=now + DAY,
    )
    point.put(MANIFEST_FILE, manifest.to_bytes())


def roa_bytes(world, *, ee_public=None, **changes) -> bytes:
    """A ROA under Continental's key (Figure 2 world), validly signed,
    its payload as the builder would make it but for *changes*.

    *ee_public* is the embedded EE certificate's subject key (default:
    the key that signs the ROA)."""
    ca, now = world.continental, world.clock.now
    ee_cert = build_certificate(
        issuer_key=ca.key, issuer_key_id=ca.key_id, subject="forged-ee",
        subject_key=_EE_KEY.public if ee_public is None else ee_public,
        ip_resources=ResourceSet.parse("63.174.16.0/20"), serial=9_001,
        not_before=now, not_after=now + DAY, sia="", crldp=ca.crl_uri,
        is_ca=False,
    )
    payload = {
        "type": "roa", "serial": 9_002,
        "issuer_key_id": ee_cert.subject_key_id, "asn": 64_999,
        "prefixes": [[[Afi.IPV4.value, NETWORK, 20], 24]],
        "ee_cert": ee_cert.to_bytes(),
        "not_before": now, "not_after": now + DAY,
    }
    payload.update(changes)
    return forge(payload, _EE_KEY)


def cert_bytes(world, **changes) -> bytes:
    """ETB's certificate re-signed by Sprint with *changes* applied."""
    return reforge(world.etb.certificate, world.sprint.key, **changes)


def crl_bytes(world, serials: list[int]) -> bytes:
    """Continental's CRL re-signed with *serials*, in the order given."""
    ca = world.continental
    current = parse_object(ca.publication_point.get(CRL_FILE))
    return reforge(current, ca.key, revoked_serials=serials)


def str_map(mapping: dict[str, str]) -> dict[str, str]:
    """*mapping* in the order a string map is read back: by encoded key."""
    return dict(sorted(mapping.items(), key=lambda item: write_str(item[0])))


def build_ghostbusters(
    *,
    ee_key: KeyPair,
    ee_cert: EECertificate,
    vcard: dict[str, str],
    serial: int,
    not_before: int,
    not_after: int,
) -> GhostbustersRecord:
    """A Ghostbusters record over *vcard*, whatever its fields, signed
    with its EE key."""
    return build_signed(GhostbustersRecord, ee_key, dict(
        serial=serial,
        issuer_key_id=ee_cert.subject_key_id,
        vcard=str_map(vcard),
        ee_cert=ee_cert,
        not_before=not_before,
        not_after=not_after,
    ))


def forge_contact(ca: CertificateAuthority, vcard: dict[str, str], *,
                  validity: int = YEAR) -> GhostbustersRecord:
    """A Ghostbusters record for *ca*, its EE certificate issued under
    *ca*'s key, valid from now for *validity* seconds."""
    now = ca._clock.now
    ee_cert = build_certificate(
        issuer_key=ca.key, issuer_key_id=ca.key_id, subject="forged-gbr-ee",
        subject_key=_EE_KEY.public, ip_resources=ResourceSet.empty(),
        serial=9_003, not_before=now, not_after=now + validity, sia="",
        crldp=ca.crl_uri, is_ca=False,
    )
    return build_ghostbusters(
        ee_key=_EE_KEY, ee_cert=ee_cert, vcard=vcard, serial=9_004,
        not_before=now, not_after=now + validity,
    )


def publish_contact(ca: CertificateAuthority, vcard: dict[str, str], *,
                    validity: int = YEAR) -> GhostbustersRecord:
    """Put :func:`forge_contact` on *ca*'s point, its manifest re-signed
    over it; the authority's next publish takes it down again."""
    record = forge_contact(ca, vcard, validity=validity)
    publish_forged(ca, {GHOSTBUSTERS_FILE: record.to_bytes()})
    return record
