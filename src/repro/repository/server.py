"""Repository servers: where publication points physically live.

"RPKI objects are stored in publicly-available repositories distributed
throughout the Internet" (paper, Section 2) — and, crucially for Section 6,
each repository server sits at an IP address inside some prefix and behind
some origin AS.  :class:`HostLocator` captures that placement; the fetch
layer asks the routing substrate whether the locator is reachable before
any bytes move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..resources import ASN, Afi, Prefix, format_address, parse_address
from ..rpki.publication import InMemoryPublicationPoint
from ..rpki.uri import RsyncUri
from .errors import MountError, UnknownHostError

__all__ = ["HostLocator", "RepositoryServer", "HostedPublicationPoint", "RepositoryRegistry"]


@dataclass(frozen=True)
class HostLocator:
    """The network placement of a repository server.

    *address* is the server's IP as an integer; *origin_asn* the AS that
    announces the covering prefix.  Continental Broadband "hosts its own
    repository at 63.174.23.0" in AS 17054 — that is
    ``HostLocator.parse("63.174.23.0", 17054)``.
    """

    afi: Afi
    address: int
    origin_asn: ASN

    @classmethod
    def parse(cls, address_text: str, asn: ASN | int) -> "HostLocator":
        afi, address = parse_address(address_text)
        return cls(afi=afi, address=address, origin_asn=ASN(int(asn)))

    @property
    def host_prefix(self) -> Prefix:
        """The /32 (or /128) covering exactly this address."""
        return Prefix(self.afi, self.address, self.afi.bits)

    def __str__(self) -> str:
        return f"{format_address(self.afi, self.address)} ({self.origin_asn})"


class HostedPublicationPoint(InMemoryPublicationPoint):
    """A publication point mounted on a repository server.

    Implements the CA's :class:`~repro.rpki.publication.PublicationTarget`
    protocol, so an authority writes here exactly as it would to a local
    directory — the CA neither knows nor cares where its repository is
    hosted, which is the root of the paper's circularity (the CA's own
    ROA may be what makes this server reachable).
    """

    def __init__(self, server: "RepositoryServer", uri: RsyncUri):
        super().__init__()
        self.server = server
        self.uri = uri


class RepositoryServer:
    """One rsync server hosting any number of publication points."""

    def __init__(self, host: str, locator: HostLocator,
                 registry: "RepositoryRegistry"):
        self.host = host
        self.locator = locator
        self._registry = registry
        self._points: dict[str, HostedPublicationPoint] = {}

    def mount(self, uri: str | RsyncUri) -> HostedPublicationPoint:
        """Create a publication point at *uri* (host part must match)."""
        parsed = uri if isinstance(uri, RsyncUri) else RsyncUri.parse(uri)
        if parsed.host != self.host:
            raise MountError(
                f"cannot mount {parsed} on server {self.host!r}"
            )
        if parsed.path in self._points:
            raise MountError(f"path {parsed.path!r} already mounted on {self.host!r}")
        point = HostedPublicationPoint(self, parsed)
        self._points[parsed.path] = point
        self._registry.mounts += 1
        return point

    def point_at(self, uri: str | RsyncUri) -> HostedPublicationPoint | None:
        parsed = uri if isinstance(uri, RsyncUri) else RsyncUri.parse(uri)
        if parsed.host != self.host:
            return None
        return self._points.get(parsed.path)

    def points(self) -> Iterator[HostedPublicationPoint]:
        return iter(self._points.values())

    def __repr__(self) -> str:
        return (
            f"RepositoryServer(host={self.host!r}, locator={self.locator}, "
            f"points={sorted(self._points)})"
        )


class RepositoryRegistry:
    """Name resolution from URI host to repository server.

    The model's stand-in for DNS + the global rsync namespace.  (The paper
    does not analyze DNS failures; names here always resolve — what may
    fail is *routing* to the resolved address.)
    """

    def __init__(self) -> None:
        self._servers: dict[str, RepositoryServer] = {}
        # Points mounted so far: a fetcher's resolutions hold until it moves.
        self.mounts = 0

    def create_server(self, host: str, locator: HostLocator) -> RepositoryServer:
        if host in self._servers:
            raise MountError(f"host {host!r} already registered")
        server = RepositoryServer(host, locator, self)
        self._servers[host] = server
        return server

    def by_host(self, host: str) -> RepositoryServer:
        try:
            return self._servers[host]
        except KeyError:
            raise UnknownHostError(f"no repository server named {host!r}") from None

    def resolve(self, uri: str | RsyncUri) -> HostedPublicationPoint:
        """The publication point a URI names (host + path)."""
        parsed = uri if isinstance(uri, RsyncUri) else RsyncUri.parse(uri)
        point = self.by_host(parsed.host).point_at(parsed)
        if point is None:
            raise UnknownHostError(f"no publication point at {parsed}")
        return point

    def servers(self) -> Iterator[RepositoryServer]:
        return iter(self._servers.values())

    def __contains__(self, host: str) -> bool:
        return host in self._servers
