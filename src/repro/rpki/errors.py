"""Exceptions raised by the RPKI object model and CA engine."""

from __future__ import annotations


class RpkiError(Exception):
    """Base class for all RPKI-layer errors."""


class UriError(RpkiError):
    """A publication URI was malformed."""


class ObjectFormatError(RpkiError):
    """A serialized RPKI object was malformed."""


class IssuanceError(RpkiError):
    """An authority attempted an issuance it is not entitled to make.

    The defining example: issuing a child certificate (or ROA) for
    resources not covered by the issuer's own certificate — the RPKI's
    principle of least privilege forbids it, and the CA engine enforces
    it at issuance time.
    """


class RevocationError(RpkiError):
    """A revocation referenced an unknown or foreign object."""


class RolloverError(RpkiError):
    """A key rollover was attempted in an invalid state."""
