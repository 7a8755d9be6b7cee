"""The previous parse path, kept as the differential oracle.

Until the schema-directed readers, ``repro.rpki.parse_object`` worked in
four steps: the generic CTLV decoder turned the whole blob into a tree,
``split_wire`` checked it was ``[payload dict, signature bytes]`` and
located the payload's byte span with a second walk, the class was looked
up by the payload's ``"type"``, and each class's constructor read its
fields out of the dictionary (the embedded EE certificate of a ROA or
Ghostbusters record going through the same four steps).  This module is
that path, verbatim apart from the names (``Reference*``), the telemetry
counters and the builders — slow, obviously shaped like the payload
dictionaries, and never imported by ``src/``.  The generic decoder it
uses is the reference codec next door (``tests/crypto``), so the oracle
shares no line of parsing code with production.

``tests/rpki/test_parse_differential.py`` pins production to it.  The
accessors that still read the payload lazily (``payload[...]`` in a
property) are part of the record: a missing key surfaced there, late,
as ``KeyError`` — see the named tightenings in that test.
"""

from __future__ import annotations

from typing import Any

from repro.crypto import RsaPublicKey, sha256_hex
from repro.resources import (
    ASN,
    AddressRange,
    Afi,
    AsnRange,
    AsnSet,
    Prefix,
    ResourceSet,
)
from repro.rpki.errors import ObjectFormatError
from repro.rpki.roa import RoaPrefix

from ..crypto import reference_codec

decode = reference_codec.decode
encode = reference_codec.encode
EncodingError = reference_codec.EncodingError


def encode_parts(*encoded_items: bytes) -> bytes:
    body = b"".join(encoded_items)
    return b"L" + len(body).to_bytes(4, "big") + body


def toplevel_spans(data: bytes) -> list[tuple[int, int]]:
    """Byte spans ``(start, end)`` of each item of a top-level CTLV list."""
    total = len(data)
    if total < 5 or data[0] != 76:  # b"L"
        raise EncodingError("not a CTLV list")
    body_length = int.from_bytes(data[1:5], "big")
    end = 5 + body_length
    if end != total:
        raise EncodingError("list length does not cover the input")
    spans: list[tuple[int, int]] = []
    cursor = 5
    while cursor < end:
        if cursor + 5 > end:
            raise EncodingError("truncated header")
        length = int.from_bytes(data[cursor + 1:cursor + 5], "big")
        item_end = cursor + 5 + length
        if item_end > end:
            raise EncodingError("truncated payload")
        spans.append((cursor, item_end))
        cursor = item_end
    return spans


def resource_set_from_data(data: Any) -> ResourceSet:
    """Decode the output of ``resource_set_to_data``."""
    if not isinstance(data, list):
        raise ObjectFormatError(f"resource set must be a list, got {type(data)}")
    ranges = []
    for item in data:
        try:
            afi_value, start, end = item
            ranges.append(AddressRange(Afi(afi_value), start, end))
        except (TypeError, ValueError) as exc:
            raise ObjectFormatError(f"bad resource range {item!r}: {exc}") from exc
    return ResourceSet(ranges)


def asn_set_from_data(data: Any) -> AsnSet:
    """Decode the output of ``asn_set_to_data``."""
    if not isinstance(data, list):
        raise ObjectFormatError(f"ASN set must be a list, got {type(data)}")
    ranges = []
    for item in data:
        try:
            start, end = item
            ranges.append(AsnRange(start, end))
        except (TypeError, ValueError) as exc:
            raise ObjectFormatError(f"bad ASN range {item!r}: {exc}") from exc
    return AsnSet(ranges)


#: The narrowest modulus, in bytes, that a PKCS#1 v1.5 SHA-256
#: signature fits under: 2 framing bytes and a separator, the 19-byte
#: DigestInfo, the 32-byte digest and at least 8 bytes of padding.
SIGNING_FLOOR_BYTES = 2 + 1 + 19 + 32 + 8


def check_key_profile(key: Any) -> None:
    """RFC 7935 section 3.1's key profile, as the readers apply it: the
    exponent is 65537 and the modulus a positive integer of at most 2048
    bits, at least :data:`SIGNING_FLOOR_BYTES` wide (narrower, nothing
    can be signed under it).  Only the values present are judged; a
    missing or mistyped field surfaces late, from the accessor, as it
    always did."""
    if not isinstance(key, dict):
        return
    exponent, modulus = key.get("e"), key.get("n")
    if exponent is not None and exponent != 65537:
        raise ObjectFormatError("RSA public exponent is not 65537")
    if isinstance(modulus, int) and not (
            modulus > 0 and (modulus.bit_length() + 7) // 8
            >= SIGNING_FLOOR_BYTES and modulus.bit_length() <= 2048):
        raise ObjectFormatError(
            "RSA modulus is not a positive integer of "
            f"{SIGNING_FLOOR_BYTES} bytes to 2048 bits")


def prefix_from_data(data: Any) -> Prefix:
    """Decode the output of ``prefix_to_data``."""
    try:
        afi_value, network, length = data
        return Prefix(Afi(afi_value), network, length)
    except (TypeError, ValueError) as exc:
        raise ObjectFormatError(f"bad prefix {data!r}: {exc}") from exc


class ReferenceObject:
    """A canonical payload dictionary plus a signature over its encoding."""

    TYPE = ""

    def __init__(self, payload: dict, signature: bytes, *,
                 encoded_payload: bytes | None = None):
        if self.TYPE and payload.get("type") != self.TYPE:
            raise ObjectFormatError(
                f"payload type {payload.get('type')!r} != expected {self.TYPE!r}"
            )
        self._payload = payload
        self._signature = signature
        if encoded_payload is None:
            encoded_payload = encode(payload)
        self._encoded_payload = encoded_payload
        self._wire = encode_parts(encoded_payload, encode(signature))
        self._hash_hex = sha256_hex(self._wire)

    @property
    def payload(self) -> dict:
        return self._payload

    @property
    def signature(self) -> bytes:
        return self._signature

    @property
    def signed_bytes(self) -> bytes:
        return self._encoded_payload

    @property
    def signed_end(self) -> int:
        # The wire form is a list header, then the payload.
        return 5 + len(self._encoded_payload)

    def verify_signature(self, public_key: RsaPublicKey) -> bool:
        return public_key.verify(self._encoded_payload, self._signature)

    def to_bytes(self) -> bytes:
        return self._wire

    @classmethod
    def split_wire(cls, blob: bytes) -> tuple[dict, bytes, bytes]:
        """Split a serialized object into (payload, signature, payload bytes)."""
        try:
            decoded = decode(blob)
        except Exception as exc:
            raise ObjectFormatError(f"undecodable object: {exc}") from exc
        if (
            not isinstance(decoded, list)
            or len(decoded) != 2
            or not isinstance(decoded[0], dict)
            or not isinstance(decoded[1], bytes)
        ):
            raise ObjectFormatError("object is not [payload, signature]")
        start, end = toplevel_spans(blob)[0]
        return decoded[0], decoded[1], blob[start:end]

    @property
    def hash_hex(self) -> str:
        return self._hash_hex

    @property
    def serial(self) -> int:
        return self._payload["serial"]

    @property
    def issuer_key_id(self) -> str:
        return self._payload["issuer_key_id"]

    @property
    def not_before(self) -> int:
        return self._payload["not_before"]

    @property
    def not_after(self) -> int:
        return self._payload["not_after"]

    def is_current(self, now: int) -> bool:
        return self.not_before <= now <= self.not_after


class _ReferenceCertificate(ReferenceObject):
    def __init__(self, payload: dict, signature: bytes, *,
                 encoded_payload: bytes | None = None):
        super().__init__(payload, signature, encoded_payload=encoded_payload)
        self._ip_resources = resource_set_from_data(payload["ip_resources"])
        self._as_resources = asn_set_from_data(payload["as_resources"])
        check_key_profile(payload.get("subject_key"))

    @property
    def subject(self) -> str:
        return self.payload["subject"]

    @property
    def subject_key(self) -> RsaPublicKey:
        key = self.payload["subject_key"]
        return RsaPublicKey(modulus=key["n"], exponent=key["e"])

    @property
    def subject_key_id(self) -> str:
        return self.payload["subject_key_id"]

    @property
    def ip_resources(self) -> ResourceSet:
        return self._ip_resources

    @property
    def as_resources(self) -> AsnSet:
        return self._as_resources

    @property
    def sia(self) -> str:
        return self.payload["sia"]

    @property
    def sia_mirrors(self) -> tuple[str, ...]:
        return tuple(self.payload.get("sia_mirrors", []))

    @property
    def all_publication_uris(self) -> tuple[str, ...]:
        if not self.sia:
            return ()
        return (self.sia, *self.sia_mirrors)

    @property
    def crldp(self) -> str:
        return self.payload["crldp"]

    @property
    def is_self_signed(self) -> bool:
        return self.issuer_key_id == self.subject_key_id


class ReferenceResourceCertificate(_ReferenceCertificate):
    TYPE = "rc"


class ReferenceEECertificate(_ReferenceCertificate):
    TYPE = "ee"


def _embedded_ee(blob: Any) -> ReferenceEECertificate:
    ee_payload, ee_signature, ee_encoded = ReferenceObject.split_wire(blob)
    return ReferenceEECertificate(
        ee_payload, ee_signature, encoded_payload=ee_encoded
    )


class ReferenceRoa(ReferenceObject):
    TYPE = "roa"

    def __init__(self, payload: dict, signature: bytes, *,
                 encoded_payload: bytes | None = None):
        super().__init__(payload, signature, encoded_payload=encoded_payload)
        self._prefixes = tuple(
            RoaPrefix(prefix_from_data(p), max_length if max_length >= 0 else None)
            for p, max_length in payload["prefixes"]
        )
        self._ee_cert = _embedded_ee(payload["ee_cert"])

    @property
    def asn(self) -> ASN:
        return ASN(self.payload["asn"])

    @property
    def prefixes(self) -> tuple[RoaPrefix, ...]:
        return self._prefixes

    @property
    def ee_cert(self) -> ReferenceEECertificate:
        return self._ee_cert

    def resources(self) -> ResourceSet:
        return ResourceSet.from_prefixes(rp.prefix for rp in self._prefixes)

    def describe(self) -> str:
        prefix_text = ", ".join(str(rp) for rp in self._prefixes)
        return f"({prefix_text}, {self.asn})"


class ReferenceCrl(ReferenceObject):
    TYPE = "crl"

    def __init__(self, payload: dict, signature: bytes, *,
                 encoded_payload: bytes | None = None):
        super().__init__(payload, signature, encoded_payload=encoded_payload)
        self._revoked = frozenset(payload["revoked_serials"])

    @property
    def revoked_serials(self) -> frozenset[int]:
        return self._revoked

    def is_revoked(self, serial: int) -> bool:
        return serial in self._revoked

    @property
    def this_update(self) -> int:
        return self.payload["not_before"]

    @property
    def next_update(self) -> int:
        return self.payload["not_after"]


class ReferenceManifest(ReferenceObject):
    TYPE = "mft"

    def __init__(self, payload: dict, signature: bytes, *,
                 encoded_payload: bytes | None = None):
        super().__init__(payload, signature, encoded_payload=encoded_payload)
        self._entries = dict(payload["entries"])

    @property
    def entries(self) -> dict[str, str]:
        return dict(self._entries)

    @property
    def file_names(self) -> set[str]:
        return set(self._entries)

    def hash_of(self, file_name: str) -> str | None:
        return self._entries.get(file_name)

    @property
    def this_update(self) -> int:
        return self.payload["not_before"]

    @property
    def next_update(self) -> int:
        return self.payload["not_after"]


_ALLOWED_FIELDS = frozenset({"fn", "org", "email", "tel", "adr"})


class ReferenceGhostbustersRecord(ReferenceObject):
    TYPE = "gbr"

    def __init__(self, payload: dict, signature: bytes, *,
                 encoded_payload: bytes | None = None):
        super().__init__(payload, signature, encoded_payload=encoded_payload)
        vcard = payload.get("vcard")
        if not isinstance(vcard, dict) or "fn" not in vcard:
            raise ObjectFormatError("ghostbusters record needs a vCard with fn")
        unknown = set(vcard) - _ALLOWED_FIELDS
        if unknown:
            raise ObjectFormatError(f"unknown vCard fields: {sorted(unknown)}")
        self._ee_cert = _embedded_ee(payload["ee_cert"])

    @property
    def vcard(self) -> dict[str, str]:
        return dict(self.payload["vcard"])

    @property
    def full_name(self) -> str:
        return self.payload["vcard"]["fn"]

    @property
    def email(self) -> str | None:
        return self.payload["vcard"].get("email")

    @property
    def ee_cert(self) -> ReferenceEECertificate:
        return self._ee_cert


OBJECT_TYPES: dict[str, type[ReferenceObject]] = {
    cls.TYPE: cls for cls in (
        ReferenceResourceCertificate, ReferenceEECertificate, ReferenceRoa,
        ReferenceGhostbustersRecord, ReferenceCrl, ReferenceManifest,
    )
}


def parse_object(blob: bytes) -> ReferenceObject:
    """Parse serialized bytes into the right ``Reference*`` class."""
    payload, signature, encoded_payload = ReferenceObject.split_wire(blob)
    type_tag = payload.get("type")
    cls = OBJECT_TYPES.get(type_tag)
    if cls is None:
        raise ObjectFormatError(f"unknown object type {type_tag!r}")
    try:
        return cls(payload, signature, encoded_payload=encoded_payload)
    except ObjectFormatError:
        raise
    except Exception as exc:
        raise ObjectFormatError(f"malformed {type_tag} object: {exc}") from exc
