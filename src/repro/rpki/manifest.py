"""Repository manifests (RFC 6486 profile).

A manifest lists every file a CA currently publishes at its publication
point, with the SHA-256 hash of each.  Manifests are the relying party's
only tool for *noticing that something is missing* — which the paper shows
matters enormously (Side Effect 6: an absent ROA does not merely downgrade
a route to "unknown"; a covering ROA can make it "invalid").

RFC 6486 deliberately leaves open what a relying party should do when the
repository contents disagree with the manifest ("the RFCs do not specify
what action should be taken", paper Section 4); the relying party in
:mod:`repro.rp` therefore takes an explicit strictness policy.
"""

from __future__ import annotations

from .objects import SignedObject, read_str_map, schema, write_str_map

__all__ = ["Manifest"]


class Manifest(SignedObject):
    """A signed snapshot of a publication point's directory listing."""

    TYPE = "mft"

    __slots__ = ("_entries",)

    _SCHEMA = schema(TYPE, entries=(read_str_map, write_str_map))

    @property
    def entries(self) -> dict[str, str]:
        """Mapping of file name to SHA-256 hex of the file's bytes."""
        return dict(self._entries)

    @property
    def file_names(self) -> set[str]:
        return set(self._entries)

    def hash_of(self, file_name: str) -> str | None:
        return self._entries.get(file_name)

    @property
    def this_update(self) -> int:
        return self._not_before

    @property
    def next_update(self) -> int:
        return self._not_after

    def __repr__(self) -> str:
        return (
            f"Manifest(issuer={self.issuer_key_id!r}, serial={self.serial}, "
            f"files={sorted(self._entries)})"
        )
