"""BGP announcements and RIBs.

An :class:`Announcement` is one AS's view of one path to one prefix; a
:class:`Rib` holds each AS's selected route per prefix, indexed for
longest-prefix-match forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..resources import ASN, Prefix, PrefixMap
from .errors import AnnouncementError
from .topology import Relationship

__all__ = ["Announcement", "Rib"]


@dataclass(frozen=True)
class Announcement:
    """A route as held by some AS.

    ``path`` is the AS path from here to the origin: ``path[0]`` is the
    neighbor the route was learned from (the forwarding next hop) and
    ``path[-1]`` the origin.  An AS originating its own prefix holds an
    announcement with an empty path and ``learned_from=None``.
    """

    prefix: Prefix
    origin: ASN
    path: tuple[ASN, ...]
    learned_from: Relationship | None  # None = locally originated

    def __post_init__(self) -> None:
        if self.path:
            if self.path[-1] != self.origin:
                raise AnnouncementError(
                    f"path {self.path} does not end at origin {self.origin}"
                )
            if len(set(self.path)) != len(self.path):
                raise AnnouncementError(f"AS path contains a loop: {self.path}")
        elif self.learned_from is not None:
            raise AnnouncementError("an empty path must be locally originated")

    @classmethod
    def originate(cls, prefix: Prefix, origin: ASN | int) -> "Announcement":
        """The origin AS's own route for its prefix."""
        return cls(
            prefix=prefix, origin=ASN(int(origin)), path=(), learned_from=None
        )

    @property
    def is_origination(self) -> bool:
        return self.learned_from is None

    @property
    def next_hop(self) -> ASN | None:
        """The neighbor traffic is forwarded to (None at the origin)."""
        return self.path[0] if self.path else None

    @property
    def path_length(self) -> int:
        return len(self.path)

    def extended_to(
        self, receiver_asn: ASN, sender_asn: ASN, relationship: Relationship
    ) -> "Announcement":
        """The announcement as *receiver* would hold it after *sender*
        exports this route to it.

        *relationship* is the sender's role from the receiver's viewpoint.
        Loop prevention: raises if the receiver is already on the path.
        """
        if receiver_asn == self.origin or receiver_asn in self.path:
            raise AnnouncementError(f"{receiver_asn} already on path")
        return Announcement(
            prefix=self.prefix,
            origin=self.origin,
            path=(sender_asn,) + self.path,
            learned_from=relationship,
        )

    def __str__(self) -> str:
        path_text = " ".join(str(int(a)) for a in self.path) or "local"
        return f"{self.prefix} via [{path_text}] origin {self.origin}"


class Rib:
    """One AS's selected routes, indexed by prefix for LPM lookup.

    The flat view (:meth:`prefixes`) is cached per mutation epoch —
    propagation over large topologies re-reads it
    far more often than it installs, so re-materializing a list per
    call was a measurable hot path at Internet scale.
    """

    def __init__(self) -> None:
        self._routes: PrefixMap[Announcement] = PrefixMap()
        self._prefixes_view: tuple[Prefix, ...] | None = None

    def install(self, announcement: Announcement) -> None:
        self._routes.insert(announcement.prefix, announcement)
        self._prefixes_view = None

    def lookup(self, prefix: Prefix) -> Announcement | None:
        """Longest-prefix-match: the most specific route covering *prefix*.

        This is the forwarding decision — and the reason subprefix hijacks
        work: "when a router is offered BGP routes for a prefix and its
        subprefix, it always chooses the subprefix route" (paper, Sec. 4).
        """
        hit = self._routes.longest_match(prefix)
        return hit[1] if hit else None

    def prefixes(self) -> tuple[Prefix, ...]:
        """Every routed prefix, in address order (cached until mutation)."""
        if self._prefixes_view is None:
            self._prefixes_view = tuple(self._routes.keys())
        return self._prefixes_view

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes
