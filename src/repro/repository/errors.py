"""Exceptions raised by the repository and delivery layer."""

from __future__ import annotations


class RepositoryError(Exception):
    """Base class for repository-layer errors."""


class UnknownHostError(RepositoryError):
    """A fetch referenced a repository host that is not registered."""


class MountError(RepositoryError):
    """A publication point path collided with an existing mount."""
