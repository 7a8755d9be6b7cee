"""Certificate revocation lists (RFC 5280 profile, RPKI-shaped).

The CRL is the *transparent* revocation channel: "relying parties could use
this list to detect and react to abusive revocations" (paper, Section 3).
The stealthy alternative — deleting or overwriting a published object
without touching the CRL — is exactly what Side Effect 2 is about, and the
monitor layer compares both channels to tell the two apart.
"""

from __future__ import annotations

from ..crypto import KeyPair, encode
from ..crypto.encoding import LIST, open_container, read_int
from .objects import SignedObject, schema

__all__ = ["Crl", "build_crl"]


def _read_serials(buf: bytes, offset: int, limit: int
                  ) -> tuple[frozenset[int], int]:
    cursor, end = open_container(buf, offset, limit, LIST)
    serials = []
    while cursor < end:
        serial, cursor = read_int(buf, cursor, end)
        serials.append(serial)
    return frozenset(serials), end


class Crl(SignedObject):
    """A signed list of revoked certificate serial numbers."""

    TYPE = "crl"

    __slots__ = ("_revoked_serials",)

    _SCHEMA = schema(TYPE, revoked_serials=_read_serials)

    @property
    def revoked_serials(self) -> frozenset[int]:
        return self._revoked_serials

    def is_revoked(self, serial: int) -> bool:
        return serial in self._revoked_serials

    @property
    def this_update(self) -> int:
        return self._not_before

    @property
    def next_update(self) -> int:
        """When the next CRL is due; a CRL older than this is stale."""
        return self._not_after

    def __repr__(self) -> str:
        return (
            f"Crl(issuer={self.issuer_key_id!r}, serial={self.serial}, "
            f"revoked={sorted(self._revoked_serials)})"
        )


def build_crl(
    *,
    issuer_key: KeyPair,
    issuer_key_id: str,
    revoked_serials: set[int],
    serial: int,
    this_update: int,
    next_update: int,
) -> Crl:
    """Sign a CRL covering the given revoked serial numbers."""
    payload = {
        "type": Crl.TYPE,
        "serial": serial,
        "issuer_key_id": issuer_key_id,
        "revoked_serials": sorted(revoked_serials),
        "not_before": this_update,
        "not_after": next_update,
    }
    encoded_payload = encode(payload)
    signature = issuer_key.sign(encoded_payload)
    return Crl(payload, signature, encoded_payload=encoded_payload)
