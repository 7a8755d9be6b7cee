"""The signed-object core of the model RPKI.

Every RPKI object — resource certificate, EE certificate, ROA, CRL,
manifest — is a canonical payload map plus an RSA signature over its
encoding.  The payload layouts mirror the fields of the production profiles
(RFC 6487 certificates, RFC 6482 ROAs, RFC 5280 CRLs, RFC 6486 manifests)
at the granularity the paper's analysis needs.

Each type declares its fields once, in a :func:`schema` whose rows carry
a typed reader and a typed writer per field.  An object is read from its
wire form in one pass (:func:`read_signed`, by the readers, themselves
built from the leaf readers of :mod:`repro.crypto.encoding`), and built
from the values in hand in one pass (:func:`build_signed`, by the
writers): no payload dictionary exists on either path, only on demand,
as ``SignedObject.payload``.

Objects are immutable once constructed; "overwriting" an object in a
repository (the stealthy-revocation primitive of Side Effect 2) means
publishing a *different* object under the same file name, never mutating
one in place.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from types import MappingProxyType

from ..crypto import KeyPair, RsaPublicKey, decode, sha256_hex
from ..crypto.encoding import (
    LIST,
    MAP,
    open_container,
    read_header,
    read_int,
    read_str,
    write_bytes,
    write_container,
    write_int,
    write_str,
)
from ..crypto.errors import EncodingError, SchemaError
from .errors import ObjectFormatError

__all__ = [
    "SignedObject",
    "build_signed",
    "read_signed",
    "record_type",
    "verify_wire",
]

_TYPE_KEY = write_str("type")


def type_pair(type_tag: str) -> bytes:
    """The encoded ``"type": type_tag`` pair, matched as one constant."""
    return _TYPE_KEY + write_str(type_tag)


def schema(type_tag: str, **fields) -> tuple:
    """The payload schema of one object type: its fields in wire order.

    *fields* maps each of the type's own payload keys to ``(reader,
    writer)``.  The reader is a function ``(buf, offset, limit) ->
    (value, end)`` whose result goes into the slot ``_<key>``; the
    writer is its inverse, from the value the slot holds to the bytes of
    the field.  The four fields every signed object has (``serial``,
    ``issuer_key_id``, ``not_before``, ``not_after``) are added here.
    CTLV sorts map keys by their encoded bytes, and every object has
    every key, so a payload has exactly one key sequence; it is computed
    here, not written out by hand.  Each row is ``(encoded key, its
    length, reader, writer, field name, slot)``; the ``type`` row
    carries the whole pair as its key and neither reader nor writer.
    """
    fields.update(serial=(read_int, write_int),
                  issuer_key_id=(read_str, write_str),
                  not_before=(read_int, write_int),
                  not_after=(read_int, write_int))
    rows = [(type_pair(type_tag), None, None, "")]
    rows += [(write_str(name), read, write, name)
             for name, (read, write) in fields.items()]
    rows.sort(key=lambda row: row[0])
    return tuple((key, len(key), read, write, name, name and "_" + name)
                 for key, read, write, name in rows)


def key_error(buf: bytes, offset: int, end: int, expected: bytes | None
              ) -> SchemaError:
    """Why the map key at *offset* is not *expected* (None: map over)."""
    if expected is not None and expected.startswith(_TYPE_KEY) \
            and buf.startswith(_TYPE_KEY, offset):
        found, _ = read_str(buf, offset + len(_TYPE_KEY), end)
        wanted, _ = read_str(expected, len(_TYPE_KEY), len(expected))
        return SchemaError(f"payload type {found!r} != expected {wanted!r}")
    wanted = None if expected is None else read_str(expected, 0, len(expected))[0]
    if offset >= end:
        return SchemaError(f"missing key {wanted!r}")
    found, _ = read_str(buf, offset, end)
    if wanted is None:
        return SchemaError(f"unexpected key {found!r}")
    return SchemaError(f"expected key {wanted!r}, found {found!r}")


def read_str_map(buf: bytes, offset: int, limit: int
                 ) -> tuple[dict[str, str], int]:
    """The string-to-string map at *offset* (manifest entries, a vCard).

    Its keys are data, not schema, so the codec's "strictly sorted by
    encoded bytes" rule is checked here instead of holding by
    construction.
    """
    cursor, end = open_container(buf, offset, limit, MAP)
    result: dict[str, str] = {}
    previous = b""
    while cursor < end:
        key_at = cursor
        key, cursor = read_str(buf, cursor, end)
        key_bytes = buf[key_at:cursor]
        if key_bytes <= previous:
            raise EncodingError("map keys not strictly sorted")
        previous = key_bytes
        result[key], cursor = read_str(buf, cursor, end)
    return result, end


def write_str_map(mapping: dict[str, str]) -> bytes:
    """The string-to-string map *mapping*, pairs in canonical order.

    Canonical order is by encoded key, so by key length first:
    ``"ca.crl"`` before ``"roa-10.roa"``.  A pair's bytes begin with its
    encoded key, and no encoded key is a prefix of another (each starts
    with its length), so sorting the pairs sorts the keys.
    """
    return write_container(MAP, b"".join(sorted(
        write_str(key) + write_str(value) for key, value in mapping.items()
    )))


def _rejection(blob: bytes, type_tag: str, complaint: SchemaError
               ) -> ObjectFormatError:
    """The error for bytes a reader's schema does not describe.

    Reject path only.  The codec is asked first: bytes that are not
    canonical CTLV at all are reported with its complaint, whichever
    field the reader happened to stop at.
    """
    try:
        decoded = decode(blob)
    except EncodingError as exc:
        return ObjectFormatError(f"undecodable object: {exc}")
    if (
        not isinstance(decoded, list)
        or len(decoded) != 2
        or not isinstance(decoded[0], dict)
        or not isinstance(decoded[1], bytes)
    ):
        return ObjectFormatError("object is not [payload, signature]")
    if not type_tag:
        # An alien type tag, or a known one on another type's layout.
        return ObjectFormatError(
            "not the payload of any object type "
            f"(its type is {decoded[0].get('type')!r})"
        )
    field = complaint.field
    where = "payload" if field is None else f"field {field!r}"
    return ObjectFormatError(f"malformed {type_tag} {where}: {complaint}")


def record_type(name: str, rows: tuple) -> type:
    """The named tuple one :func:`read_signed` by *rows* fills.

    Its fields are the schema's in wire order, then ``wire`` and
    ``signed_end``.  The order is computed from the schema, so a reader
    that keeps the raw values (:func:`repro.rpki.roa.read_roa`) names
    them without restating the key sequence, and makes its record of
    the list :func:`read_signed` returns with ``tuple.__new__``: the
    length check of ``_make`` holds by construction.
    """
    fields = (name for _key, _size, read, _write, name, _slot in rows if read)
    return namedtuple(name, (*fields, "wire", "signed_end"))


def read_signed(blob: bytes, rows: tuple | None, type_tag: str) -> list:
    """Read the wire form ``[payload, signature]`` by *rows* in one pass.

    Returns the payload's values in wire order (the fields of
    :func:`record_type`), then *blob* and the offset where the signed
    bytes end.  The single entry to every per-type reader — each object
    class, :func:`repro.rpki.roa.read_roa` and the embedded EE
    certificate all come through here — so a field is extracted in
    exactly one place per type.  The reader accepts only the canonical
    encoding, so *blob* is the unique encoding of what was read.

    *rows* None (bytes of no known type) rejects once the framing has
    been judged.  Every rejection is an :class:`ObjectFormatError`.
    """
    try:
        total = len(blob)
        body, end = open_container(blob, 0, total, LIST)
        fields, signed_end = open_container(blob, body, end, MAP)
        values = _read_payload(rows, blob, fields, signed_end)
        tag, _start, signature_end = read_header(blob, signed_end, end)
        if tag != 66 or signature_end != end:
            raise SchemaError("object is not [payload, signature]")
        if end != total:
            raise EncodingError(f"{total - end} trailing bytes after value")
    except EncodingError as exc:
        raise ObjectFormatError(f"undecodable object: {exc}") from exc
    except SchemaError as exc:
        raise _rejection(blob, type_tag, exc) from exc
    except ObjectFormatError:
        raise
    except Exception as exc:  # a value the resource algebra refuses
        raise ObjectFormatError(f"malformed {type_tag} object: {exc}") from exc
    values.append(blob)
    values.append(signed_end)
    return values


def _read_payload(rows: tuple | None, buf: bytes, offset: int, end: int
                  ) -> list:
    """The values of the payload map body ``buf[offset:end]``.

    One walk by the schema's key sequence: a key is matched as a
    constant byte string, never decoded — so "keys strictly sorted,
    no duplicates" holds by construction — and its value is read by
    the field's typed reader.
    """
    if rows is None:
        raise SchemaError("no object type has this layout")
    values = []
    append, startswith = values.append, buf.startswith
    for key, size, read, _write, name, _slot in rows:
        if not startswith(key, offset):
            raise key_error(buf, offset, end, key)
        if read is None:        # the type pair: all constant
            offset += size
            continue
        try:
            value, offset = read(buf, offset + size, end)
        except SchemaError as exc:
            if exc.field is None:
                exc.field = name
            raise
        append(value)
    if offset != end:
        raise key_error(buf, offset, end, None)
    return values


def build_signed(cls: type, signer: KeyPair, fields: dict,
                 written: Mapping[str, bytes] = MappingProxyType({})
                 ) -> "SignedObject":
    """The *cls* object written from its field values, signed by *signer*.

    *fields* maps each field of the type's schema to the value its
    accessor returns (``RoaPrefix`` tuples, the ``EECertificate`` in
    hand, a ``ResourceSet``, ...).  Each is written by its schema row in
    wire order, the payload is signed, and ``[payload, signature]`` is
    assembled around it, so the object is filled from the values
    themselves: nothing is read back.  *written* gives fields whose
    bytes the caller already holds (the CA keeps its CRL's serials and
    its manifest's entries encoded one by one); they are joined in as
    they are.  The one way every builder makes a signed object.
    """
    obj = cls.__new__(cls)
    parts = []
    append = parts.append
    for key, _size, _read, write, name, slot in cls._SCHEMA:
        append(key)
        if write is not None:
            value = fields[name]
            setattr(obj, slot, value)
            append(written[name] if name in written else write(value))
    payload = write_container(MAP, b"".join(parts))
    obj._wire = write_container(
        LIST, payload + write_bytes(signer.sign(payload)))
    obj._signed_end = 5 + len(payload)
    obj._hash_hex = None        # hashed once, when a manifest lists it
    return obj


def verify_wire(wire: bytes, signed_end: int, public_key: RsaPublicKey
                ) -> bool:
    """True iff a wire form's signature verifies under *public_key*.

    *wire* is ``[payload, signature]`` and its signed bytes end at
    *signed_end*.
    """
    return public_key.verify(wire[5:signed_end], wire[signed_end + 5:])


class SignedObject:
    """Base class: a canonical payload plus a signature over its encoding.

    Subclasses define ``TYPE`` (the payload's ``"type"`` discriminator)
    and ``_SCHEMA``, the payload's fields with their typed readers and
    writers, which :func:`read_signed` and :func:`build_signed` walk;
    each value goes into the slot the accessor returns.  Equality and
    hashing are by serialized bytes, so two objects are "the same
    object" exactly when a manifest hash or monitor diff would say so.
    """

    TYPE = ""
    #: The type's :func:`schema`.  None: bytes of no known type.
    _SCHEMA: tuple | None = None
    #: The slot of each schema field, in wire order.
    _FIELDS: tuple[str, ...] = ()

    __slots__ = ("_wire", "_signed_end", "_hash_hex", "_serial",
                 "_issuer_key_id", "_not_before", "_not_after")

    def __init__(self, encoded_payload: bytes, signature: bytes):
        # Bytes from outside (forge tooling, tests): the wire form is
        # [payload, signature], a header + concatenation, and the fields
        # are read from it exactly as from fetched bytes.
        self._read_wire(write_container(
            LIST, encoded_payload + write_bytes(signature)), None)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls._SCHEMA is not None:
            cls._FIELDS = tuple(row[5] for row in cls._SCHEMA if row[2])

    def _read_wire(self, blob: bytes, digest: str | None) -> None:
        """Fill this object from its wire form *blob* (:func:`read_signed`).

        *blob* is kept as ``to_bytes()`` and never rebuilt, and *digest*
        (the caller's SHA-256 of *blob*, if it has one) as ``hash_hex``.
        """
        self._fill(read_signed(blob, self._SCHEMA, self.TYPE), digest)

    def _fill(self, read, digest: str | None) -> None:
        """Set the slots from a :func:`read_signed` result."""
        for slot, value in zip(self._FIELDS, read):
            setattr(self, slot, value)
        self._wire, self._signed_end = read[-2:]
        self._hash_hex = digest

    # -- signing surface -----------------------------------------------------

    @property
    def payload(self) -> dict:
        """The payload as a plain dictionary, decoded on demand.

        Nothing on the validation path reads it; it is for inspection,
        and the tests' forging helpers start from it to sign an altered
        payload.
        """
        return decode(self.signed_bytes)

    @property
    def signature(self) -> bytes:
        return self._wire[self._signed_end + 5:]

    @property
    def signed_bytes(self) -> bytes:
        """The exact bytes the signature covers."""
        return self._wire[5:self._signed_end]

    @property
    def signed_end(self) -> int:
        """Where the signed bytes end in ``to_bytes()``
        (:func:`verify_wire`)."""
        return self._signed_end

    def verify_signature(self, public_key: RsaPublicKey) -> bool:
        """True iff the signature verifies under *public_key*."""
        return verify_wire(self._wire, self._signed_end, public_key)

    # -- wire form -------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the whole object (payload + signature).

        The bytes the object was read from — objects are immutable, so
        publication, manifest hashing, and equality all reuse them.
        """
        return self._wire

    @property
    def hash_hex(self) -> str:
        """SHA-256 of the serialized object — the manifest entry value."""
        digest = self._hash_hex
        if digest is None:
            digest = self._hash_hex = sha256_hex(self._wire)
        return digest

    # -- common payload fields ----------------------------------------------------

    @property
    def serial(self) -> int:
        return self._serial

    @property
    def issuer_key_id(self) -> str:
        """Key identifier of the signing authority."""
        return self._issuer_key_id

    @property
    def not_before(self) -> int:
        return self._not_before

    @property
    def not_after(self) -> int:
        return self._not_after

    def is_current(self, now: int) -> bool:
        """True iff *now* falls inside the validity window."""
        return self._not_before <= now <= self._not_after

    # -- value semantics --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedObject):
            return NotImplemented
        return self._wire == other._wire

    def __hash__(self) -> int:
        return hash(self._wire)
