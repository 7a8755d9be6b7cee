"""The publication-point protocol between authorities and repositories.

"RPKI objects are stored at directories that are controlled by their
issuer" (paper, Section 3): each CA has exactly one publication point and
unilaterally decides its contents.  The CA engine writes through this
small protocol; :mod:`repro.repository` provides the hosted implementation
whose *reachability* the Section 6 circularity analysis cares about.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Iterator, Protocol, runtime_checkable

__all__ = ["DEFAULT_HISTORY_LIMIT", "PublicationTarget", "InMemoryPublicationPoint"]

# Checkpoints kept per point.  Enough for a replay attacker to reach back
# several publish cycles; bounded so long campaigns don't accumulate
# every state the point ever had.
DEFAULT_HISTORY_LIMIT = 8

# Session tokens: one per point object, never reused within a process.
_SESSIONS = count(1)


@runtime_checkable
class PublicationTarget(Protocol):
    """What a CA needs from wherever its objects are published."""

    def put(self, name: str, data: bytes) -> None:
        """Create or overwrite the file *name*."""

    def delete(self, name: str) -> None:
        """Remove the file *name* (no error if absent)."""

    def get(self, name: str) -> bytes | None:
        """The current bytes of *name*, or None."""

    def names(self) -> Iterator[str]:
        """All current file names."""

    def snapshot(self) -> dict[str, bytes]:
        """A copy of the full current contents, by file name."""


class InMemoryPublicationPoint:
    """A plain dict-backed publication point.

    Used directly in unit tests and wrapped by the repository layer's
    hosted points.  Keeps RRDP-style (RFC 8182) versioning: a *session*
    token unique to this point object and a *revision* serial bumped by
    every mutation that changes a byte, so ``serial`` — the pair — is
    equal exactly when nothing was written here since it was read (a
    fetcher skips the copy then).  Also keeps a bounded history of
    *checkpoints* — consistent past states recorded by the CA after each
    publish — which is exactly what a replaying authority (or a
    compromised repository) can serve instead of the current content:
    stale-but-signed, internally consistent, semantically outdated.
    """

    def __init__(self) -> None:
        self._files: dict[str, bytes] = {}
        # ``(session, revision)``: equal only for the same point object
        # with the same contents since the serial was read.
        self.serial = (next(_SESSIONS), 0)
        self._history: deque[dict[str, bytes]] = deque(
            maxlen=DEFAULT_HISTORY_LIMIT
        )

    def put(self, name: str, data: bytes) -> None:
        if not name:
            raise ValueError("publication file name must be non-empty")
        if self._files.get(name) != data:
            self._files[name] = data
            self.serial = (self.serial[0], self.serial[1] + 1)

    def delete(self, name: str) -> None:
        if self._files.pop(name, None) is not None:
            self.serial = (self.serial[0], self.serial[1] + 1)

    def get(self, name: str) -> bytes | None:
        return self._files.get(name)

    def names(self) -> Iterator[str]:
        return iter(sorted(self._files))

    def snapshot(self) -> dict[str, bytes]:
        """A copy of the full current contents."""
        return dict(self._files)

    def checkpoint(self) -> None:
        """Record the current contents as a consistent historical state.

        The CA engine calls this after every :meth:`publish
        <repro.rpki.ca.CertificateAuthority.publish>` sync, so each
        checkpoint is a manifest-consistent view — the raw material of
        the Byzantine replay faults (:mod:`repro.repository.faults`).
        Identical consecutive states are collapsed.
        """
        if self._history and self._history[-1] == self._files:
            return
        self._history.append(dict(self._files))

    def checkpoints(self) -> tuple[dict[str, bytes], ...]:
        """Past consistent states, oldest first (bounded; copies)."""
        return tuple(dict(state) for state in self._history)

    def __len__(self) -> int:
        return len(self._files)

    def __contains__(self, name: str) -> bool:
        return name in self._files
