"""The signed-object core of the model RPKI.

Every RPKI object — resource certificate, EE certificate, ROA, CRL,
manifest — is a canonical payload dictionary plus an RSA signature over its
encoding.  The payload layouts mirror the fields of the production profiles
(RFC 6487 certificates, RFC 6482 ROAs, RFC 5280 CRLs, RFC 6486 manifests)
at the granularity the paper's analysis needs.

Objects are immutable once constructed; "overwriting" an object in a
repository (the stealthy-revocation primitive of Side Effect 2) means
publishing a *different* object under the same file name, never mutating
one in place.
"""

from __future__ import annotations

from typing import Any

from ..crypto import RsaPublicKey, decode, encode, sha256_hex
from ..crypto.encoding import encode_parts, toplevel_spans
from ..resources import (
    AddressRange,
    Afi,
    AsnRange,
    AsnSet,
    Prefix,
    ResourceSet,
)
from ..telemetry import default_registry
from .errors import ObjectFormatError

__all__ = [
    "SignedObject",
    "resource_set_to_data",
    "resource_set_from_data",
    "asn_set_to_data",
    "asn_set_from_data",
    "prefix_to_data",
    "prefix_from_data",
]

# Canonical-bytes memo telemetry.  RPKI objects are immutable, so the
# encoded payload computed at issuance (the bytes the builder signed) or
# at parse time (a slice of the fetched wire form) is *the* canonical
# encoding forever — a miss means a constructor had to re-encode its
# payload from the dictionary.  Bound to the process-global registry at
# import time (the default registry is a permanent singleton, only ever
# reset in place), same as repro.crypto.rsa's counters.
_ENCODE_CACHE_HITS = default_registry().counter(
    "repro_crypto_encode_cache_hits_total",
    help="SignedObject constructions that reused pre-encoded payload bytes",
)
_ENCODE_CACHE_MISSES = default_registry().counter(
    "repro_crypto_encode_cache_misses_total",
    help="SignedObject constructions that had to re-encode their payload",
)


def resource_set_to_data(resources: ResourceSet) -> list:
    """Encode a ResourceSet as ``[[afi, start, end], ...]`` (sorted)."""
    return [[r.afi.value, r.start, r.end] for r in resources.ranges]


def resource_set_from_data(data: Any) -> ResourceSet:
    """Decode the output of :func:`resource_set_to_data`."""
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


def asn_set_to_data(asns: AsnSet) -> list:
    """Encode an AsnSet as ``[[start, end], ...]`` (sorted)."""
    return [[r.start, r.end] for r in asns.ranges]


def asn_set_from_data(data: Any) -> AsnSet:
    """Decode the output of :func:`asn_set_to_data`."""
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


def prefix_to_data(prefix: Prefix) -> list:
    """Encode a Prefix as ``[afi, network, length]``."""
    return [prefix.afi.value, prefix.network, prefix.length]


def prefix_from_data(data: Any) -> Prefix:
    """Decode the output of :func:`prefix_to_data`."""
    try:
        afi_value, network, length = data
        return Prefix(Afi(afi_value), network, length)
    except (TypeError, ValueError) as exc:
        raise ObjectFormatError(f"bad prefix {data!r}: {exc}") from exc


class SignedObject:
    """Base class: a canonical payload plus a signature over its encoding.

    Subclasses define ``TYPE`` (the payload's ``"type"`` discriminator) and
    expose typed accessors over ``self.payload``.  Equality and hashing are
    by serialized bytes, so two objects are "the same object" exactly when
    a manifest hash or monitor diff would say so.
    """

    TYPE = ""

    __slots__ = ("_payload", "_signature", "_encoded_payload", "_wire",
                 "_hash_hex")

    def __init__(self, payload: dict, signature: bytes, *,
                 encoded_payload: bytes | None = None):
        if self.TYPE and payload.get("type") != self.TYPE:
            raise ObjectFormatError(
                f"payload type {payload.get('type')!r} != expected {self.TYPE!r}"
            )
        self._payload = payload
        self._signature = signature
        if encoded_payload is None:
            _ENCODE_CACHE_MISSES.inc()
            encoded_payload = encode(payload)
        else:
            _ENCODE_CACHE_HITS.inc()
        self._encoded_payload = encoded_payload
        # The full wire form is [payload, signature]; with the payload
        # bytes in hand it is a header + concatenation, never a re-encode.
        self._wire = encode_parts(encoded_payload, encode(signature))
        self._hash_hex = sha256_hex(self._wire)

    # -- signing surface -----------------------------------------------------

    @property
    def payload(self) -> dict:
        """The payload dictionary.  Treat as read-only."""
        return self._payload

    @property
    def signature(self) -> bytes:
        return self._signature

    @property
    def signed_bytes(self) -> bytes:
        """The exact bytes the signature covers."""
        return self._encoded_payload

    def verify_signature(self, public_key: RsaPublicKey) -> bool:
        """True iff the signature verifies under *public_key*."""
        return public_key.verify(self._encoded_payload, self._signature)

    # -- wire form -------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the whole object (payload + signature).

        Cached at construction — objects are immutable, so publication,
        manifest hashing, and equality all reuse the same bytes.
        """
        return self._wire

    @classmethod
    def split_wire(cls, blob: bytes) -> tuple[dict, bytes, bytes]:
        """Split a serialized object into (payload, signature, payload bytes).

        The third element is the payload's exact canonical encoding — a
        slice of *blob* — suitable for the ``encoded_payload`` constructor
        argument, so parsing never re-encodes what it just decoded.

        Raises :class:`ObjectFormatError` on any structural problem; this
        is the choke point through which every fetched byte string passes,
        so corruption injected by the fault layer surfaces here.
        """
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
        # decode() proved blob is a well-formed two-item list, so the
        # span walk cannot fail; item 0's span is the payload's bytes.
        start, end = toplevel_spans(blob)[0]
        return decoded[0], decoded[1], blob[start:end]

    @property
    def hash_hex(self) -> str:
        """SHA-256 of the serialized object — the manifest entry value."""
        return self._hash_hex

    # -- common payload fields ----------------------------------------------------

    @property
    def serial(self) -> int:
        return self._payload["serial"]

    @property
    def issuer_key_id(self) -> str:
        """Key identifier of the signing authority."""
        return self._payload["issuer_key_id"]

    @property
    def not_before(self) -> int:
        return self._payload["not_before"]

    @property
    def not_after(self) -> int:
        return self._payload["not_after"]

    def is_current(self, now: int) -> bool:
        """True iff *now* falls inside the validity window."""
        return self.not_before <= now <= self.not_after

    # -- value semantics --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedObject):
            return NotImplemented
        return self._wire == other._wire

    def __hash__(self) -> int:
        return hash(self._hash_hex)
