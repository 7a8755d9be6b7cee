"""Exceptions raised by the cryptography layer."""

from __future__ import annotations


class CryptoError(Exception):
    """Base class for all cryptography errors."""


class KeySizeError(CryptoError):
    """A requested RSA modulus size was too small to be meaningful."""


class SignatureError(CryptoError):
    """A signature failed structural checks (verification itself returns bool)."""


class EncodingError(CryptoError):
    """A value could not be canonically encoded or decoded."""


class SchemaError(CryptoError):
    """Bytes that are not what a typed reader's schema declares there.

    Raised by the leaf readers of :mod:`repro.crypto.encoding` for a
    value of another type than the one asked for.  Distinct from
    :class:`EncodingError`: the bytes may be perfectly canonical CTLV.
    ``field`` is filled in by whoever knows which field was being read.
    """

    field: str | None = None
