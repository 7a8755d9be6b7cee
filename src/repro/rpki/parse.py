"""Parsing fetched bytes back into typed RPKI objects.

Everything a relying party fetches comes through :func:`parse_object` —
this is where corrupted, truncated, or alien bytes get rejected, turning
the fault layer's injected noise into the "missing object" condition the
paper analyzes.
"""

from __future__ import annotations

import struct

from ..crypto.encoding import write_str
from .cert import EECertificate, ResourceCertificate
from .crl import Crl
from .ghostbusters import GhostbustersRecord
from .manifest import Manifest
from .objects import SignedObject, type_pair
from .roa import Roa

__all__ = ["parse_object", "class_of", "OBJECT_TYPES"]

OBJECT_TYPES: dict[str, type[SignedObject]] = {
    ResourceCertificate.TYPE: ResourceCertificate,
    EECertificate.TYPE: EECertificate,
    Roa.TYPE: Roa,
    GhostbustersRecord.TYPE: GhostbustersRecord,
    Crl.TYPE: Crl,
    Manifest.TYPE: Manifest,
}

# Which reader gets the bytes is read off where the canonical key order
# puts the ``type`` pair: first in a CRL, manifest or Ghostbusters
# record, after ``asn`` in a ROA (the only payload starting with it),
# after ``sia`` in a certificate.  A wrong guess costs nothing: the
# reader it selects rejects the bytes.
_BODY = 10      # [ list header, map header ] precede the first key
_LENGTH = struct.Struct(">I")
_ASN_KEY = write_str("asn")
_SIA_KEY = write_str("sia")
_BY_LEADING_TYPE = {
    type_pair(cls.TYPE): cls for cls in (Crl, Manifest, GhostbustersRecord)
}
_CERTIFICATE_BY_TYPE = {
    type_pair(cls.TYPE): cls for cls in (ResourceCertificate, EECertificate)
}
_LEADING_PAIR = len(type_pair(Crl.TYPE))
_CERTIFICATE_PAIR = len(type_pair(EECertificate.TYPE))
_SIA_VALUE = _BODY + len(_SIA_KEY)


def class_of(blob: bytes) -> type[SignedObject] | None:
    """The class whose reader *blob* goes to (None: no known type).

    Read off the layout alone, never the file name; the reader it
    selects still judges the bytes.
    """
    if blob.startswith(_ASN_KEY, _BODY):
        return Roa
    if blob.startswith(_SIA_KEY, _BODY) and len(blob) >= _SIA_VALUE + 5:
        # Past the SIA string (tag byte, 4-byte length, text) to the pair.
        type_at = _SIA_VALUE + 5 + _LENGTH.unpack_from(blob, _SIA_VALUE + 1)[0]
        return _CERTIFICATE_BY_TYPE.get(
            blob[type_at:type_at + _CERTIFICATE_PAIR]
        )
    return _BY_LEADING_TYPE.get(blob[_BODY:_BODY + _LEADING_PAIR])


def parse_object(blob: bytes, digest: str | None = None) -> SignedObject:
    """Parse serialized bytes into the right :class:`SignedObject` subclass.

    One pass: the type's reader walks *blob* once, straight into the
    typed object, which keeps *blob* itself as its wire form.  *digest*
    is the SHA-256 hex of *blob* if the caller already has it (a relying
    party hashes every fetched file once, for the manifest check); it
    becomes the object's ``hash_hex`` instead of being computed again.

    Raises :class:`ObjectFormatError` for anything structurally wrong:
    undecodable bytes, unknown type tags, or payloads that are not the
    type's exact field set.
    """
    if type(blob) is not bytes:
        blob = bytes(blob)
    # Bytes of no known type are read as a bare SignedObject, whose
    # reader rejects them once the framing has been judged.
    cls = class_of(blob) or SignedObject
    obj = cls.__new__(cls)
    obj._read_wire(blob, digest)
    return obj
