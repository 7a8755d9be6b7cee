"""Ghostbusters records (RFC 6493): who you gonna call?

A Ghostbusters record is a signed vCard published alongside a CA's other
objects, carrying human contact information.  It exists for exactly the
situations this reproduction is about: when validation breaks — a ROA
whacked, a repository dark, a certificate shrunk — the relying party
needs someone to phone, and the paper's "little recourse" discussion
(Section 3) is in practice mediated through them.

Like a ROA, a record is signed by a one-time EE certificate issued by the
publishing CA.  No authority here publishes one; a relying party judges
any record it finds (``ValidationRun.contacts``).
"""

from __future__ import annotations

from ..crypto.errors import SchemaError
from .cert import EECertificate, read_embedded_ee, write_embedded_ee
from .objects import SignedObject, read_str_map, schema, write_str_map

__all__ = ["GhostbustersRecord"]

_ALLOWED_FIELDS = frozenset({"fn", "org", "email", "tel", "adr"})


def _read_vcard(buf: bytes, offset: int, limit: int
                ) -> tuple[dict[str, str], int]:
    vcard, end = read_str_map(buf, offset, limit)
    _check_vcard(vcard)
    return vcard, end


def _check_vcard(vcard: dict[str, str]) -> None:
    if "fn" not in vcard:
        raise SchemaError("ghostbusters record needs a vCard with fn")
    unknown = set(vcard) - _ALLOWED_FIELDS
    if unknown:
        raise SchemaError(f"unknown vCard fields: {sorted(unknown)}")


class GhostbustersRecord(SignedObject):
    """A signed contact card for one authority."""

    TYPE = "gbr"

    __slots__ = ("_vcard", "_ee_cert")

    _SCHEMA = schema(TYPE, vcard=(_read_vcard, write_str_map),
                     ee_cert=(read_embedded_ee, write_embedded_ee))

    @property
    def vcard(self) -> dict[str, str]:
        return dict(self._vcard)

    @property
    def full_name(self) -> str:
        """The vCard FN field — the responsible party's name."""
        return self._vcard["fn"]

    @property
    def ee_cert(self) -> EECertificate:
        return self._ee_cert

    def __repr__(self) -> str:
        return f"GhostbustersRecord(fn={self.full_name!r})"

