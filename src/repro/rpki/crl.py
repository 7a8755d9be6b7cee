"""Certificate revocation lists (RFC 5280 profile, RPKI-shaped).

The CRL is the *transparent* revocation channel: "relying parties could use
this list to detect and react to abusive revocations" (paper, Section 3).
The stealthy alternative — deleting or overwriting a published object
without touching the CRL — is exactly what Side Effect 2 is about, and the
monitor layer compares both channels to tell the two apart.
"""

from __future__ import annotations

from bisect import bisect_left

from ..crypto.encoding import (
    LIST,
    open_container,
    read_int,
    write_container,
    write_int,
)
from ..crypto.errors import SchemaError
from .objects import SignedObject, schema

__all__ = ["Crl"]


def _read_serials(buf: bytes, offset: int, limit: int
                  ) -> tuple[tuple[int, ...], int]:
    """The revoked serials, which must be strictly ascending.

    The serials are the issuer's to choose, and CPython hashes an int
    modulo 2**61 - 1: 16,000 of them congruent to each other take
    seconds to put in a set.  An authority emits them sorted, so the
    order is required and the list is searched, never hashed, here.
    """
    cursor, end = open_container(buf, offset, limit, LIST)
    serials: list[int] = []
    while cursor < end:
        serial, cursor = read_int(buf, cursor, end)
        if serials and serial <= serials[-1]:
            raise SchemaError(
                f"serial {serial} after {serials[-1]}: not strictly ascending"
            )
        serials.append(serial)
    return tuple(serials), end


def _write_serials(serials: tuple[int, ...]) -> bytes:
    """The revoked serials, ascending as given."""
    return write_container(LIST, b"".join(map(write_int, serials)))


class Crl(SignedObject):
    """A signed list of revoked certificate serial numbers."""

    TYPE = "crl"

    __slots__ = ("_revoked_serials",)

    _SCHEMA = schema(TYPE, revoked_serials=(_read_serials, _write_serials))

    @property
    def revoked_serials(self) -> tuple[int, ...]:
        """The revoked serials, strictly ascending (the parser's rule)."""
        return self._revoked_serials

    def is_revoked(self, serial: int) -> bool:
        serials = self._revoked_serials
        at = bisect_left(serials, serial)
        return at < len(serials) and serials[at] == serial

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
            f"revoked={list(self._revoked_serials)})"
        )
