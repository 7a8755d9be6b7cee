"""Route Origin Authorizations (RFC 6482 profile).

A ROA authorizes one origin AS to announce a set of prefixes, each with an
optional *maxLength*: the ROA ``(63.160.0.0/12-13, AS 1239)`` of Figure 5
authorizes AS 1239 to originate the /12 and any subprefix down to /13.

A ROA is a signed object whose signer is a one-time-use EE certificate;
the EE certificate travels embedded in the ROA (as in CMS), and its IP
resources must cover the ROA's prefixes — the relying party checks both.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import KeyPair
from ..crypto.encoding import (
    LIST,
    open_container,
    read_int,
    write_container,
    write_int,
)
from ..crypto.errors import SchemaError
from ..resources import AS_MAX, ASN, Afi, Prefix, ResourceSet
from .cert import (
    EECertificate,
    address_family,
    embedded_ee,
    read_ee,
    write_embedded_ee,
)
from .errors import ObjectFormatError
from .objects import SignedObject, build_signed, read_signed, record_type, schema

__all__ = ["RoaPrefix", "Roa", "RoaRead", "build_roa", "read_roa", "roa_of"]


@dataclass(frozen=True)
class RoaPrefix:
    """One (prefix, maxLength) entry of a ROA.

    ``max_length`` of ``None`` means "not specified", which RFC 6482
    defines as equivalent to the prefix's own length: only the exact
    prefix is authorized.
    """

    prefix: Prefix
    max_length: int | None = None

    def __post_init__(self) -> None:
        if self.max_length is not None:
            prefix = self.prefix
            _check_max_length(prefix.afi, prefix.network, prefix.length,
                              self.max_length)

    @property
    def effective_max_length(self) -> int:
        """The maxLength actually in force (prefix length if unspecified)."""
        if self.max_length is None:
            return self.prefix.length
        return self.max_length

    @classmethod
    def parse(cls, text: str) -> "RoaPrefix":
        """Parse the paper's notation: ``"63.160.0.0/12-13"`` or a bare prefix."""
        body, dash, max_text = text.strip().rpartition("-")
        if dash and "/" in body:
            return cls(Prefix.parse(body), int(max_text))
        return cls(Prefix.parse(text))

    def __str__(self) -> str:
        if self.max_length is None or self.max_length == self.prefix.length:
            return str(self.prefix)
        return f"{self.prefix}-{self.max_length}"


def _check_max_length(afi: Afi, network: int, length: int,
                      max_length: int) -> None:
    """Refuse a maxLength shorter than its prefix or longer than the
    family's addresses."""
    if not length <= max_length <= afi.bits:
        raise ObjectFormatError(
            f"maxLength {max_length} invalid for {Prefix(afi, network, length)}"
        )


def _read_asn(buf: bytes, offset: int, limit: int) -> tuple[int, int]:
    """The origin AS number, under the range check of ``ASN``, refused in
    its words; :class:`Roa` builds the ``ASN`` its accessor returns."""
    value, end = read_int(buf, offset, limit)
    if not 0 <= value <= AS_MAX:
        ASN(value)
    return value, end


def _write_asn(asn: ASN) -> bytes:
    return write_int(int(asn))


def _read_prefixes(buf: bytes, offset: int, limit: int
                   ) -> tuple[tuple[tuple[Afi, int, int, int], ...], int]:
    """``(afi, network, length, maxLength)`` per entry, maxLength -1 when
    unspecified, under the checks of ``Prefix`` and ``RoaPrefix``.

    The ranges are tested as :meth:`repro.rp.vrp.VRP.from_integers`
    tests them; an entry that fails goes to ``Prefix`` (its constructor,
    the one statement of the rule) and then to ``RoaPrefix``'s check,
    so the refusal is in their words, and no prefix is built otherwise.
    """
    cursor, end = open_container(buf, offset, limit, LIST)
    if cursor == end:
        raise SchemaError("a ROA must name at least one prefix")
    prefixes = []
    while cursor < end:
        cursor, entry_end = open_container(buf, cursor, end, LIST)
        cursor, prefix_end = open_container(buf, cursor, entry_end, LIST)
        afi, cursor = read_int(buf, cursor, prefix_end)
        network, cursor = read_int(buf, cursor, prefix_end)
        length, cursor = read_int(buf, cursor, prefix_end)
        if cursor != prefix_end:
            raise SchemaError("a prefix is [afi, network, length]")
        max_length, cursor = read_int(buf, cursor, entry_end)
        if cursor != entry_end:
            raise SchemaError("a ROA prefix is [prefix, maxLength]")
        if max_length < -1:
            raise SchemaError(f"maxLength {max_length}: unspecified is -1")
        family = address_family(afi)
        bits = family.bits
        if not (0 <= length <= bits and 0 <= network <= family.max_address
                and not network & ((1 << (bits - length)) - 1)
                and (max_length < 0 or length <= max_length <= bits)):
            Prefix(family, network, length)
            _check_max_length(family, network, length, max_length)
        prefixes.append((family, network, length, max_length))
    return tuple(prefixes), end


def _write_prefixes(prefixes: tuple[RoaPrefix, ...]) -> bytes:
    """``[[afi, network, length], maxLength]`` per entry, maxLength -1
    when unspecified."""
    entries = []
    for entry in prefixes:
        prefix, max_length = entry.prefix, entry.max_length
        address = write_container(LIST, write_int(prefix.afi.value)
                                  + write_int(prefix.network)
                                  + write_int(prefix.length))
        entries.append(write_container(LIST, address + write_int(
            -1 if max_length is None else max_length)))
    return write_container(LIST, b"".join(entries))


class Roa(SignedObject):
    """A signed Route Origin Authorization with its embedded EE certificate.

    Read through :func:`read_roa`; the object adds the typed views
    (``ASN``, ``RoaPrefix``, ``EECertificate``) its accessors return.
    """

    TYPE = "roa"

    __slots__ = ("_asn", "_prefixes", "_ee_cert")

    _SCHEMA = schema(
        TYPE,
        asn=(_read_asn, _write_asn),
        prefixes=(_read_prefixes, _write_prefixes),
        ee_cert=(read_ee, write_embedded_ee),
    )

    def _read_wire(self, blob: bytes, digest: str | None) -> None:
        self._fill(read_roa(blob), digest)

    def _fill(self, read: "RoaRead", digest: str | None) -> None:
        super()._fill(read, digest)
        # The raw fields, replaced by the typed views the accessors return.
        self._asn = ASN(read.asn)
        self._prefixes = tuple(
            RoaPrefix(Prefix(afi, network, length),
                      None if max_length < 0 else max_length)
            for afi, network, length, max_length in read.prefixes
        )
        self._ee_cert = embedded_ee(read.ee_cert)

    @property
    def asn(self) -> ASN:
        """The single origin AS this ROA authorizes."""
        return self._asn

    @property
    def prefixes(self) -> tuple[RoaPrefix, ...]:
        return self._prefixes

    @property
    def ee_cert(self) -> EECertificate:
        """The embedded one-time-use EE certificate that signed this ROA."""
        return self._ee_cert

    def resources(self) -> ResourceSet:
        """The address space named by the ROA's prefixes."""
        return ResourceSet.from_prefixes(rp.prefix for rp in self._prefixes)

    def describe(self) -> str:
        """The paper's notation, e.g. ``"(63.174.16.0/20-24, AS17054)"``."""
        prefix_text = ", ".join(str(rp) for rp in self._prefixes)
        return f"({prefix_text}, {self.asn})"

    def __repr__(self) -> str:
        return f"Roa{self.describe()}"


#: What :func:`read_roa` returns: the ROA's fields in wire order —
#: ``asn`` an int, ``prefixes`` the tuples of ``_read_prefixes``,
#: ``ee_cert`` an :data:`~repro.rpki.cert.EeRead` — then ``wire`` and
#: ``signed_end``.
RoaRead = record_type("RoaRead", Roa._SCHEMA)


def read_roa(blob: bytes) -> RoaRead:
    """Read a ROA's wire bytes, and its embedded EE's, in one pass.

    The one ROA field extraction: :class:`Roa` is built from it, and a
    relying party judges a ROA from it without building one.  It makes
    every check the object makes (tags, lengths, minimal integers,
    UTF-8, key sequence, URIs, address family, prefix, maxLength and
    AS ranges) and rejects as :class:`ObjectFormatError` in the same
    words.
    """
    return tuple.__new__(RoaRead, read_signed(blob, Roa._SCHEMA, Roa.TYPE))


def roa_of(read: RoaRead) -> Roa:
    """The :class:`Roa` of a :func:`read_roa` result, read no further."""
    roa = Roa.__new__(Roa)
    roa._fill(read, None)
    return roa


def build_roa(
    *,
    ee_key: KeyPair,
    ee_cert: EECertificate,
    asn: ASN | int,
    prefixes: list[RoaPrefix],
    serial: int,
    not_before: int,
    not_after: int,
) -> Roa:
    """Sign a ROA with its EE key.

    Pure constructor; the CA engine enforces that the EE certificate's
    resources cover the prefixes, and relying parties re-check.
    """
    if not prefixes:
        raise ObjectFormatError("a ROA must name at least one prefix")
    return build_signed(Roa, ee_key, dict(
        serial=serial,
        issuer_key_id=ee_cert.subject_key_id,
        asn=ASN(int(asn)),
        prefixes=tuple(prefixes),
        ee_cert=ee_cert,
        not_before=not_before,
        not_after=not_after,
    ))
