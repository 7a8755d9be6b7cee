"""rsync-style publication URIs.

The only delivery method the RPKI mandates is rsync (RFC 6481; paper,
Section 6), so publication points are named ``rsync://<host>/<path>/``.
A certificate's SIA is one, so the certificate reader judges it here; the
host half resolves to a :class:`~repro.repository.server.RepositoryServer`
whose *routability* is what the circular-dependency analysis is about.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UriError

__all__ = ["RsyncUri"]

_SCHEME = "rsync://"


@dataclass(frozen=True, order=True)
class RsyncUri:
    """A parsed ``rsync://host/dir/.../`` publication-point URI."""

    host: str
    path: str  # normalized: no leading slash, trailing slash kept off

    @classmethod
    def parse(cls, text: str) -> "RsyncUri":
        if not text.startswith(_SCHEME):
            raise UriError(f"not an rsync URI: {text!r}")
        rest = text[len(_SCHEME):]
        host, slash, path = rest.partition("/")
        if not host:
            raise UriError(f"missing host in {text!r}")
        return cls(host=host, path=path.strip("/"))

    def join(self, file_name: str) -> "RsyncUri":
        """The URI of a file inside this directory."""
        if not file_name or "/" in file_name:
            raise UriError(f"bad file name {file_name!r}")
        base = f"{self.path}/{file_name}" if self.path else file_name
        return RsyncUri(host=self.host, path=base)

    def __str__(self) -> str:
        if self.path:
            return f"{_SCHEME}{self.host}/{self.path}/"
        return f"{_SCHEME}{self.host}/"
