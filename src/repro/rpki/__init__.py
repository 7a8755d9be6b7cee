"""The RPKI object model and certification-authority engine.

Implements the object profiles the paper's analysis manipulates — resource
certificates, EE certificates, ROAs, CRLs, manifests — and the CA engine
that issues, renews, revokes, overwrites, and publishes them.
"""

from .ca import CRL_FILE, MANIFEST_FILE, CertificateAuthority, cert_file_name
from .cert import EECertificate, ResourceCertificate, build_certificate
from .crl import Crl
from .ghostbusters import GhostbustersRecord
from .errors import (
    IssuanceError,
    ObjectFormatError,
    RevocationError,
    RolloverError,
    RpkiError,
    UriError,
)
from .manifest import Manifest
from .objects import SignedObject
from .parse import parse_object
from .publication import InMemoryPublicationPoint, PublicationTarget
from .roa import Roa, RoaPrefix, build_roa
from .uri import RsyncUri

__all__ = [
    "CRL_FILE",
    "GhostbustersRecord",
    "CertificateAuthority",
    "Crl",
    "EECertificate",
    "InMemoryPublicationPoint",
    "IssuanceError",
    "MANIFEST_FILE",
    "Manifest",
    "ObjectFormatError",
    "PublicationTarget",
    "ResourceCertificate",
    "RevocationError",
    "Roa",
    "RoaPrefix",
    "RolloverError",
    "RpkiError",
    "RsyncUri",
    "SignedObject",
    "UriError",
    "build_certificate",
    "build_roa",
    "cert_file_name",
    "parse_object",
]
