"""Resource certificates and end-entity certificates (RFC 6487 profile).

A resource certificate (RC) binds a public key to a set of IP and AS
resources and names the repository publication point where the subject
publishes (the SIA pointer — the detail that makes great-grandchild
whacking noisier, Side Effect 4).  An end-entity (EE) certificate is the
one-time-use certificate that signs a single ROA (paper, footnote 3).
"""

from __future__ import annotations

from ..crypto import KeyPair, RsaPublicKey, key_id_of
from ..crypto.keys import EXPONENT_KEY, MODULUS_KEY, write_public_key
from ..crypto.rsa import MAX_MODULUS_BITS, MIN_MODULUS_BITS, PUBLIC_EXPONENT
from ..crypto.encoding import (
    LIST,
    MAP,
    open_container,
    read_bytes,
    read_int,
    read_str,
    write_bytes,
    write_container,
    write_int,
    write_str,
)
from ..crypto.errors import SchemaError
from ..resources import AddressRange, Afi, AsnRange, AsnSet, ResourceSet
from .errors import ObjectFormatError, UriError
from .objects import (
    SignedObject,
    build_signed,
    key_error,
    read_signed,
    record_type,
    schema,
)
from .uri import RsyncUri

__all__ = ["ResourceCertificate", "EECertificate", "build_certificate"]

_AFI_BY_CODE = {afi.value: afi for afi in Afi}


def address_family(code: int) -> Afi:
    """The family with IANA codepoint *code* (an integer, never a bool)."""
    afi = _AFI_BY_CODE.get(code)
    if afi is None:
        raise SchemaError(f"unknown address family {code}")
    return afi


def _rsync_uri(text: str) -> str:
    """*text* in the cache's canonical URI form; junk is a schema error."""
    try:
        return str(RsyncUri.parse(text))
    except UriError as exc:
        raise SchemaError(str(exc)) from exc


def _read_sia(buf: bytes, offset: int, limit: int) -> tuple[str, int]:
    # Judged here, once, so nothing downstream dereferences a URI the
    # walk would choke on.  EE certificates carry no SIA.
    text, end = read_str(buf, offset, limit)
    return (_rsync_uri(text) if text else text), end


def _read_mirrors(buf: bytes, offset: int, limit: int
                  ) -> tuple[tuple[str, ...], int]:
    cursor, end = open_container(buf, offset, limit, LIST)
    mirrors = []
    while cursor < end:
        text, cursor = read_str(buf, cursor, end)
        mirrors.append(_rsync_uri(text))
    return tuple(mirrors), end


def _write_mirrors(mirrors: tuple[str, ...]) -> bytes:
    return write_container(LIST, b"".join(map(write_str, mirrors)))


#: The moduli RFC 7935's key profile admits, as the simulation keeps it:
#: positive, MIN_MODULUS_BITS to MAX_MODULUS_BITS wide.
_PROFILE_MODULI = range(1 << (MIN_MODULUS_BITS - 1), 1 << MAX_MODULUS_BITS)


def _read_public_key(buf: bytes, offset: int, limit: int
                     ) -> tuple[RsaPublicKey, int]:
    cursor, end = open_container(buf, offset, limit, MAP)
    if not buf.startswith(EXPONENT_KEY, cursor):
        raise key_error(buf, cursor, end, EXPONENT_KEY)
    exponent, cursor = read_int(buf, cursor + len(EXPONENT_KEY), end)
    if not buf.startswith(MODULUS_KEY, cursor):
        raise key_error(buf, cursor, end, MODULUS_KEY)
    modulus, cursor = read_int(buf, cursor + len(MODULUS_KEY), end)
    if cursor != end:
        raise key_error(buf, cursor, end, None)
    # RFC 7935's key profile, judged before any signature is checked
    # under the key: its issuer would otherwise choose what that costs.
    if exponent != PUBLIC_EXPONENT:
        raise SchemaError(
            f"RSA public exponent is not {PUBLIC_EXPONENT} (RFC 7935 3.1)")
    if modulus not in _PROFILE_MODULI:
        raise SchemaError(
            f"RSA modulus is not a positive integer of {MIN_MODULUS_BITS} "
            f"to {MAX_MODULUS_BITS} bits (RFC 7935 3.1)")
    return RsaPublicKey(modulus, exponent), end


#: What an EE certificate's AS resources read to: no AS numbers, one
#: shared immutable set.
_NO_ASNS = AsnSet()


def _read_as_resources(buf: bytes, offset: int, limit: int
                       ) -> tuple[AsnSet, int]:
    cursor, end = open_container(buf, offset, limit, LIST)
    if cursor == end:
        return _NO_ASNS, end
    ranges = []
    while cursor < end:
        cursor, item_end = open_container(buf, cursor, end, LIST)
        first, cursor = read_int(buf, cursor, item_end)
        last, cursor = read_int(buf, cursor, item_end)
        if cursor != item_end:
            raise SchemaError("an AS range is [start, end]")
        ranges.append(AsnRange(first, last))
    return AsnSet(ranges), end


def _write_as_resources(asns: AsnSet) -> bytes:
    return write_container(LIST, b"".join(
        write_container(LIST, write_int(r.start) + write_int(r.end))
        for r in asns.ranges))


def _read_ip_resources(buf: bytes, offset: int, limit: int
                       ) -> tuple[ResourceSet, int]:
    cursor, end = open_container(buf, offset, limit, LIST)
    ranges = []
    while cursor < end:
        cursor, item_end = open_container(buf, cursor, end, LIST)
        afi, cursor = read_int(buf, cursor, item_end)
        first, cursor = read_int(buf, cursor, item_end)
        last, cursor = read_int(buf, cursor, item_end)
        if cursor != item_end:
            raise SchemaError("an address range is [afi, start, end]")
        ranges.append(AddressRange(address_family(afi), first, last))
    return ResourceSet(ranges), end


def _write_ip_resources(resources: ResourceSet) -> bytes:
    return write_container(LIST, b"".join(
        write_container(LIST, write_int(r.afi.value) + write_int(r.start)
                        + write_int(r.end))
        for r in resources.ranges))


_CERTIFICATE_FIELDS = dict(
    subject=(read_str, write_str),
    subject_key=(_read_public_key, write_public_key),
    subject_key_id=(read_str, write_str),
    ip_resources=(_read_ip_resources, _write_ip_resources),
    as_resources=(_read_as_resources, _write_as_resources),
    sia=(_read_sia, write_str),
    sia_mirrors=(_read_mirrors, _write_mirrors),
    crldp=(read_str, write_str),
)


class _BaseCertificate(SignedObject):
    """Shared accessors for RC and EE certificates."""

    __slots__ = ("_subject", "_subject_key", "_subject_key_id",
                 "_ip_resources", "_as_resources", "_sia", "_sia_mirrors",
                 "_crldp")

    @property
    def subject(self) -> str:
        """The subject's handle (human-readable authority name)."""
        return self._subject

    @property
    def subject_key(self) -> RsaPublicKey:
        return self._subject_key

    @property
    def subject_key_id(self) -> str:
        return self._subject_key_id

    @property
    def ip_resources(self) -> ResourceSet:
        """The IP addresses this certificate binds to the subject key."""
        return self._ip_resources

    @property
    def as_resources(self) -> AsnSet:
        """The AS numbers this certificate binds to the subject key."""
        return self._as_resources

    @property
    def sia(self) -> str:
        """Subject Information Access: URI of the subject's publication
        point — where objects *issued by the subject* are published.

        Empty (EE certificates) or a canonical ``rsync://host/path/``.
        """
        return self._sia

    @property
    def sia_mirrors(self) -> tuple[str, ...]:
        """Additional publication points carrying the same objects.

        The multiple-publication-points extension (the IETF direction the
        paper cites as a step toward hardening delivery): a relying party
        that cannot reach the primary SIA tries these in order.
        """
        return self._sia_mirrors

    @property
    def all_publication_uris(self) -> tuple[str, ...]:
        """Primary SIA followed by mirrors (empty SIA yields nothing)."""
        if not self._sia:
            return ()
        return (self._sia, *self._sia_mirrors)

    @property
    def crldp(self) -> str:
        """CRL distribution point: URI of the *issuer's* CRL."""
        return self._crldp

    @property
    def is_self_signed(self) -> bool:
        """True for trust anchors (issuer key == subject key)."""
        return self._issuer_key_id == self._subject_key_id

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(subject={self.subject!r}, "
            f"serial={self.serial}, ip={self._ip_resources})"
        )


class ResourceCertificate(_BaseCertificate):
    """A CA certificate: the subject may issue further RPKI objects."""

    TYPE = "rc"
    __slots__ = ()
    _SCHEMA = schema(TYPE, **_CERTIFICATE_FIELDS)


class EECertificate(_BaseCertificate):
    """A one-time-use end-entity certificate (signs exactly one ROA)."""

    TYPE = "ee"
    __slots__ = ()
    _SCHEMA = schema(TYPE, **_CERTIFICATE_FIELDS)


#: What :func:`read_ee` returns: an EE certificate's fields, unbuilt.
EeRead = record_type("EeRead", EECertificate._SCHEMA)


def read_ee(buf: bytes, offset: int, limit: int) -> tuple[EeRead, int]:
    """Read the EE certificate a ROA or Ghostbusters record embeds.

    The result is an :data:`EeRead`; its ``wire`` is the EE's own wire
    form.
    """
    blob, end = read_bytes(buf, offset, limit)
    return tuple.__new__(EeRead, read_signed(blob, EECertificate._SCHEMA,
                                             EECertificate.TYPE)), end


def embedded_ee(read: EeRead) -> EECertificate:
    """The :class:`EECertificate` of a :func:`read_ee` result."""
    ee_cert = EECertificate.__new__(EECertificate)
    ee_cert._fill(read, None)
    return ee_cert


def read_embedded_ee(buf: bytes, offset: int, limit: int
                     ) -> tuple[EECertificate, int]:
    """The embedded EE certificate at *offset*, built (Ghostbusters)."""
    read, end = read_ee(buf, offset, limit)
    return embedded_ee(read), end


def write_embedded_ee(ee_cert: EECertificate) -> bytes:
    """The field embedding *ee_cert*: its wire form, as a byte string."""
    return write_bytes(ee_cert.to_bytes())


def build_certificate(
    *,
    issuer_key: KeyPair,
    issuer_key_id: str,
    subject: str,
    subject_key: RsaPublicKey,
    ip_resources: ResourceSet,
    as_resources: AsnSet | None = None,
    serial: int,
    not_before: int,
    not_after: int,
    sia: str,
    sia_mirrors: list[str] | None = None,
    crldp: str,
    is_ca: bool = True,
) -> ResourceCertificate | EECertificate:
    """Sign and return a certificate.

    This is a pure constructor: resource-coverage policy (may the issuer
    actually delegate these resources?) is enforced by the CA engine in
    :mod:`repro.rpki.ca`, not here — a *misbehaving* authority bypasses the
    engine's checks precisely by calling this directly, which is how the
    attack tooling models rogue issuance.
    """
    if not_after < not_before:
        raise ObjectFormatError(
            f"certificate expires ({not_after}) before it starts ({not_before})"
        )
    cls = ResourceCertificate if is_ca else EECertificate
    mirrors = tuple(sia_mirrors or ())
    fields = dict(
        serial=serial,
        issuer_key_id=issuer_key_id,
        subject=subject,
        subject_key=subject_key,
        subject_key_id=key_id_of(subject_key),
        ip_resources=ip_resources,
        as_resources=as_resources or AsnSet.empty(),
        not_before=not_before,
        not_after=not_after,
        sia=_uri_view(cls, "sia", sia) if sia else sia,
        sia_mirrors=tuple(_uri_view(cls, "sia_mirrors", uri)
                          for uri in mirrors),
        crldp=crldp,
    )
    # The bytes carry the URIs as given; the slots, as a reader keeps them.
    written = {"sia": write_str(sia), "sia_mirrors": _write_mirrors(mirrors)}
    return build_signed(cls, issuer_key, fields, written)


def _uri_view(cls: type, field: str, text: str) -> str:
    """The canonical form of *text* a reader of the *field* keeps,
    refused in its words."""
    try:
        return _rsync_uri(text)
    except SchemaError as exc:
        raise ObjectFormatError(
            f"malformed {cls.TYPE} field {field!r}: {exc}") from exc
