"""The previous build path, kept as the differential oracle.

Until the schema-directed writer, every builder in ``repro.rpki`` made a
payload dictionary, encoded it with the generic canonical encoder
(then ``repro.crypto.encode``, which walked the dictionary and checked or
restored key order; its oracle, ``tests/crypto/reference_codec.py``,
gives the same bytes and stands in for it here), signed the encoding and read the object back from
the two through the type's reader.  This module is that path, the
builders' code as it was (docstrings aside) — slow, obviously shaped
like the payload dictionaries, and never imported by ``src/``.

``tests/rpki/test_build_differential.py`` pins the writer to it: the
same bytes for the same values, for every object type.
"""

from __future__ import annotations

from repro.crypto import KeyPair, RsaPublicKey, key_id_of
from repro.resources import AsnSet, Prefix, ResourceSet
from repro.rpki import (
    Crl,
    EECertificate,
    GhostbustersRecord,
    Manifest,
    ObjectFormatError,
    ResourceCertificate,
    Roa,
    RoaPrefix,
)
from repro.rpki.objects import SignedObject

from ..crypto.reference_codec import encode


def resource_set_to_data(resources: ResourceSet) -> list:
    """Encode a ResourceSet as ``[[afi, start, end], ...]`` (sorted)."""
    return [[r.afi.value, r.start, r.end] for r in resources.ranges]


def asn_set_to_data(asns: AsnSet) -> list:
    """Encode an AsnSet as ``[[start, end], ...]`` (sorted)."""
    return [[r.start, r.end] for r in asns.ranges]


def prefix_to_data(prefix: Prefix) -> list:
    """Encode a Prefix as ``[afi, network, length]``."""
    return [prefix.afi.value, prefix.network, prefix.length]


def build_signed(cls: type, payload: dict, signer: KeyPair) -> SignedObject:
    """Encode, sign the encoding, and read the object from the two."""
    encoded_payload = encode(payload)
    return cls(encoded_payload, signer.sign(encoded_payload))


def build_certificate(
    *,
    issuer_key: KeyPair,
    issuer_key_id: str,
    subject: str,
    subject_key: RsaPublicKey,
    ip_resources: ResourceSet,
    as_resources: AsnSet | None = None,
    serial: int,
    not_before: int,
    not_after: int,
    sia: str,
    sia_mirrors: list[str] | None = None,
    crldp: str,
    is_ca: bool = True,
) -> ResourceCertificate | EECertificate:
    if not_after < not_before:
        raise ObjectFormatError(
            f"certificate expires ({not_after}) before it starts ({not_before})"
        )
    cls = ResourceCertificate if is_ca else EECertificate
    payload = {
        "type": cls.TYPE,
        "serial": serial,
        "issuer_key_id": issuer_key_id,
        "subject": subject,
        "subject_key": {"n": subject_key.modulus, "e": subject_key.exponent},
        "subject_key_id": key_id_of(subject_key),
        "ip_resources": resource_set_to_data(ip_resources),
        "as_resources": asn_set_to_data(as_resources or AsnSet.empty()),
        "not_before": not_before,
        "not_after": not_after,
        "sia": sia,
        "sia_mirrors": list(sia_mirrors or []),
        "crldp": crldp,
    }
    return build_signed(cls, payload, issuer_key)


def build_roa(
    *,
    ee_key: KeyPair,
    ee_cert: EECertificate,
    asn,
    prefixes: list[RoaPrefix],
    serial: int,
    not_before: int,
    not_after: int,
) -> Roa:
    if not prefixes:
        raise ObjectFormatError("a ROA must name at least one prefix")
    payload = {
        "type": Roa.TYPE,
        "serial": serial,
        "issuer_key_id": ee_cert.subject_key_id,
        "asn": int(asn),
        "prefixes": [
            [prefix_to_data(rp.prefix), -1 if rp.max_length is None else rp.max_length]
            for rp in prefixes
        ],
        "ee_cert": ee_cert.to_bytes(),
        "not_before": not_before,
        "not_after": not_after,
    }
    return build_signed(Roa, payload, ee_key)


def build_crl(
    *,
    issuer_key: KeyPair,
    issuer_key_id: str,
    revoked_serials: set[int],
    serial: int,
    this_update: int,
    next_update: int,
) -> Crl:
    payload = {
        "type": Crl.TYPE,
        "serial": serial,
        "issuer_key_id": issuer_key_id,
        "revoked_serials": sorted(revoked_serials),
        "not_before": this_update,
        "not_after": next_update,
    }
    return build_signed(Crl, payload, issuer_key)


def build_manifest(
    *,
    issuer_key: KeyPair,
    issuer_key_id: str,
    entries: dict[str, str],
    serial: int,
    this_update: int,
    next_update: int,
) -> Manifest:
    payload = {
        "type": Manifest.TYPE,
        "serial": serial,
        "issuer_key_id": issuer_key_id,
        "entries": dict(sorted(entries.items())),
        "not_before": this_update,
        "not_after": next_update,
    }
    return build_signed(Manifest, payload, issuer_key)


def build_ghostbusters(
    *,
    ee_key: KeyPair,
    ee_cert: EECertificate,
    vcard: dict[str, str],
    serial: int,
    not_before: int,
    not_after: int,
) -> GhostbustersRecord:
    payload = {
        "type": GhostbustersRecord.TYPE,
        "serial": serial,
        "issuer_key_id": ee_cert.subject_key_id,
        "vcard": dict(vcard),
        "ee_cert": ee_cert.to_bytes(),
        "not_before": not_before,
        "not_after": not_after,
    }
    return build_signed(GhostbustersRecord, payload, ee_key)
