"""Validated ROA payloads (VRPs) and the indexed set route validation uses.

Path validation reduces every valid ROA to one or more VRPs — the triple
``(prefix, maxLength, asn)`` of RFC 6811, held as the five integers it
comes to.  :class:`VrpSet` indexes them by prefix so that finding the
*covering* VRPs of a route (the central query of origin validation) is
one hash probe per prefix length in use.
"""

from __future__ import annotations

from bisect import insort
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator
from zlib import crc32

from ..crypto.hashing import sha256, sha256_hex
from ..resources import AS_MAX, ASN, Afi, Prefix, PrefixMap
from ..rpki.roa import RoaPrefix

__all__ = ["VRP", "VrpSet"]


class VRP(tuple):
    """One validated ROA payload: prefix, maxLength, origin ASN.

    A VRP *is* the tuple ``(address bits, network, prefix length,
    maxLength, AS number)``: the tuple type compares, hashes and sorts
    it, in the order RTR serves and the fingerprint sorts.  An IPv4
    network is an ``int``; an IPv6 network is its 16 wire bytes, which
    order as the integer does and whose hash an authority cannot pick by
    picking the network (:func:`repro.resources.prefix.hash_key`).
    ``prefix`` and ``asn`` are views built per access.

    A VRP equals, hashes and sorts as the plain tuple of its fields, and
    the RTR wire plane relies on that: router tables and chained caches
    hold those plain tuples (:data:`repro.rtr.pdu.VrpRecord`): the
    cyclic garbage collector untracks them, and never untracks a ``VRP``.
    """

    __slots__ = ()

    def __new__(cls, prefix: Prefix, max_length: int, asn: ASN) -> "VRP":
        return cls.from_integers(
            prefix.afi, prefix.network, prefix.length, max_length, asn.value
        )

    @classmethod
    def from_integers(
        cls, afi: Afi, network: int, length: int, max_length: int, asn: int
    ) -> "VRP":
        """The VRP of five integers, under the range checks of ``Prefix``
        and ``ASN`` without building either; a refused field set goes to
        their constructors, so the complaint is theirs."""
        bits = afi.bits
        if not (
            0 <= length <= max_length <= bits
            and 0 <= network <= afi.max_address
            and not network & ((1 << (bits - length)) - 1)
            and 0 <= asn <= AS_MAX
        ):
            prefix = Prefix(afi, network, length)
            ASN(asn)  # either refuses in its own words; else maxLength
            raise ValueError(
                f"maxLength {max_length} out of range for {prefix}"
            )
        return tuple.__new__(cls, (
            bits, network if bits == 32 else network.to_bytes(16, "big"),
            length, max_length, asn,
        ))

    def __getnewargs__(self) -> tuple[Prefix, int, ASN]:
        # copy and pickle rebuild through __new__, which takes the views.
        return self.prefix, self[3], self.asn

    @classmethod
    def parse(cls, text: str, asn: ASN | int) -> "VRP":
        """Parse the paper's ``"63.160.0.0/12-13"`` notation."""
        roa_prefix = RoaPrefix.parse(text)
        return cls(
            prefix=roa_prefix.prefix,
            max_length=roa_prefix.effective_max_length,
            asn=ASN(int(asn)),
        )

    @property
    def prefix(self) -> Prefix:
        if self[0] == 32:
            return Prefix(Afi.IPV4, self[1], self[2])
        return Prefix(Afi.IPV6, int.from_bytes(self[1], "big"), self[2])

    max_length = property(itemgetter(3), doc="The ROA's maxLength.")

    @property
    def asn(self) -> ASN:
        return ASN(self[4])

    def covers(self, prefix: Prefix) -> bool:
        """True if this VRP is a *covering* ROA for the prefix (any ASN)."""
        return self.prefix.covers(prefix)

    def matches(self, prefix: Prefix, origin: ASN) -> bool:
        """The RFC 6811 *matching* test: covers, within maxLength, same AS."""
        return (
            prefix.length <= self[3]
            and self[4] == int(origin)
            and self.prefix.covers(prefix)
        )

    def __repr__(self) -> str:
        return (
            f"VRP(prefix={self.prefix!r}, max_length={self[3]!r}, "
            f"asn={self.asn!r})"
        )

    def __str__(self) -> str:
        prefix = self.prefix
        if self[3] == prefix.length:
            return f"({prefix}, {self.asn})"
        return f"({prefix}-{self[3]}, {self.asn})"


# Buckets of the content fingerprint's fixed partition.
_FINGERPRINT_BUCKETS = 256


def _canonical_line(vrp: VRP) -> bytes:
    """The one byte string that stands for *vrp* in the fingerprint."""
    bits, network, length, max_length, asn = vrp
    if bits == 32:
        return b"1:%x/%d-%d:%d" % (network, length, max_length, asn)
    return b"2:%x/%d-%d:%d" % (
        int.from_bytes(network, "big"), length, max_length, asn
    )


class _Fingerprint:
    """SHA-256 over a fixed partition of the table, updated per edit.

    Every VRP belongs to one of ``_FINGERPRINT_BUCKETS`` buckets, chosen
    by the CRC-32 of its canonical line — a function of the VRP alone
    (``hash()`` would not do: enum and str hashes are salted per
    process), so the partition of a table does not depend on how the
    table came to be.  A bucket's digest is SHA-256 over its sorted
    lines; the root is SHA-256 over the bucket digests in order.  An
    edit marks its bucket dirty and only dirty buckets are re-hashed, on
    the next :meth:`hexdigest`.

    Why not XOR (or a sum) of per-VRP digests, which would need no
    buckets: that combination is linear, and the authorities this
    repository studies *choose* their VRPs — a few hundred chosen VRPs
    solve for any target value, and a response cache keyed by it would
    answer for one table out of another's entries.  Here a collision of
    roots is a collision of SHA-256.  (An authority can still crowd one
    bucket; that makes edits to that bucket slower, never wrong.)
    """

    def __init__(self, vrps: Iterable[VRP]):
        self._lines: list[set[bytes]] = [
            set() for _ in range(_FINGERPRINT_BUCKETS)
        ]
        self._digests = [b""] * _FINGERPRINT_BUCKETS
        self._dirty = set(range(_FINGERPRINT_BUCKETS))
        self._root = ""
        self.edit(vrps, ())

    def edit(self, announced: Iterable[VRP], withdrawn: Iterable[VRP]) -> None:
        """*announced* joined the table, *withdrawn* left it."""
        for vrps, change in ((withdrawn, set.discard), (announced, set.add)):
            for vrp in vrps:
                line = _canonical_line(vrp)
                bucket = crc32(line) % _FINGERPRINT_BUCKETS
                change(self._lines[bucket], line)
                self._dirty.add(bucket)

    def _bucket_digest(self, bucket: int) -> bytes:
        return sha256(b"\n".join(sorted(self._lines[bucket])))

    def hexdigest(self) -> str:
        if self._dirty:
            for bucket in self._dirty:
                self._digests[bucket] = self._bucket_digest(bucket)
            self._dirty.clear()
            self._root = sha256_hex(b"".join(self._digests))
        return self._root


class VrpSet:
    """A prefix-indexed collection of VRPs that can be edited in place.

    One VRP may be asserted more than once — by two ROAs, or from two
    publication points — so the set counts assertions: a VRP is a member
    while at least one assertion of it stands.  :meth:`apply_delta` is
    the one edit; :meth:`add`, :meth:`extend` and construction announce
    through it.

    Answers depend on content only, never on the edits that led to it:
    the index's per-prefix buckets are kept sorted, the per-ASN index is
    patched by each edit, and the sorted and frozenset views are dropped
    by an edit and rebuilt on next use.  :meth:`as_frozenset` is
    therefore the immutable snapshot of the table as of the call.
    """

    def __init__(self, vrps: Iterable[VRP] = ()):
        self._index: PrefixMap[list[VRP]] = PrefixMap()
        # VRP -> standing assertions (never 0 outside apply_delta).
        self._members: dict[VRP, int] = {}
        self._sorted: list[VRP] | None = None
        self._frozen: frozenset[VRP] | None = None
        # AS number -> its VRPs, sorted.
        self._by_asn: dict[int, tuple[VRP, ...]] | None = None
        self._fingerprint: _Fingerprint | None = None
        self.apply_delta(vrps, ())

    def add(self, vrp: VRP) -> None:
        self.apply_delta((vrp,), ())

    def extend(self, vrps: Iterable[VRP]) -> int:
        """Announce *vrps*; returns how many were not members before."""
        return len(self.apply_delta(vrps, ())[0])

    def apply_delta(
        self, announced: Iterable[VRP], withdrawn: Iterable[VRP]
    ) -> tuple[tuple[VRP, ...], tuple[VRP, ...]]:
        """Take *withdrawn* assertions away, add *announced* ones.

        Returns the net ``(announced, withdrawn)`` change of membership:
        a VRP that lost one assertion and kept or regained another is
        in neither, and the index is not touched for it.  Withdrawing
        what is not asserted is ignored.  Cost is proportional to the
        arguments, not to the table.
        """
        counts = self._members
        gone: list[VRP] = []
        came: list[VRP] = []
        for vrp in withdrawn:
            standing = counts.get(vrp, 0)
            if standing:
                counts[vrp] = standing - 1
                if standing == 1:
                    gone.append(vrp)
        for vrp in announced:
            standing = counts.get(vrp, 0)
            counts[vrp] = standing + 1
            if not standing:
                came.append(vrp)
        if gone and came:
            back = set(gone).intersection(came)
            if back:
                gone = [vrp for vrp in gone if vrp not in back]
                came = [vrp for vrp in came if vrp not in back]
        index = self._index
        for vrp in gone:
            del counts[vrp]
            prefix = vrp.prefix
            bucket = index[prefix]
            bucket.remove(vrp)
            if not bucket:
                index.remove(prefix)
        for vrp in came:
            insort(index.get_or_insert(vrp.prefix, list), vrp)
        if gone or came:
            self._sorted = None
            self._frozen = None
            if self._by_asn is not None:
                self._patch_by_asn(came, gone)
            if self._fingerprint is not None:
                self._fingerprint.edit(came, gone)
        return tuple(came), tuple(gone)

    def _patch_by_asn(self, came: list[VRP], gone: list[VRP]) -> None:
        by_asn = self._by_asn
        touched: dict[int, set[VRP]] = {
            vrp[4]: set(by_asn.get(vrp[4], ())) for vrp in chain(gone, came)
        }
        for vrp in gone:
            touched[vrp[4]].discard(vrp)
        for vrp in came:
            touched[vrp[4]].add(vrp)
        for asn, group in touched.items():
            if group:
                by_asn[asn] = tuple(sorted(group))
            else:
                by_asn.pop(asn, None)

    def covering(self, prefix: Prefix) -> tuple[VRP, ...]:
        """All VRPs whose prefix covers *prefix*, least-specific first."""
        found: list[VRP] = []
        for _, bucket in self._index.covering(prefix):
            found += bucket
        return tuple(found)

    def _sorted_view(self) -> list[VRP]:
        if self._sorted is None:
            self._sorted = sorted(self._members)
        return self._sorted

    def as_frozenset(self) -> frozenset[VRP]:
        """This set's VRPs as a frozenset (cached until the next edit)."""
        if self._frozen is None:
            self._frozen = frozenset(self._members)
        return self._frozen

    def content_hash(self) -> str:
        """A 64-hex SHA-256 fingerprint of this set's *content*.

        Two sets holding the same VRPs hash identically no matter how
        they were built or edited — the content-addressed idiom the
        incremental engine uses for its memos, reused by ``repro.api``
        to key its response cache so any refresh-induced VRP change
        changes the key and an unchanged set keeps every cached answer
        warm.  The first call reads the whole table; after that an edit
        costs its own size (see :class:`_Fingerprint`).
        """
        if self._fingerprint is None:
            self._fingerprint = _Fingerprint(self._members)
        return self._fingerprint.hexdigest()

    def by_asn(self, asn: ASN | int) -> tuple[VRP, ...]:
        """All VRPs authorizing *asn* as origin, sorted.

        The per-ASN inverse of :meth:`covering` — the query plane's
        ``lookup_asn`` endpoint.  The index is built on first use and
        patched by every later edit.
        """
        if self._by_asn is None:
            index: dict[int, list[VRP]] = {}
            for vrp in self._sorted_view():
                index.setdefault(vrp[4], []).append(vrp)
            self._by_asn = {a: tuple(vs) for a, vs in index.items()}
        return self._by_asn.get(int(asn), ())

    def __iter__(self) -> Iterator[VRP]:
        return iter(self._sorted_view())

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, vrp: VRP) -> bool:
        return vrp in self._members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VrpSet):
            return NotImplemented
        return self._members.keys() == other._members.keys()

    def __repr__(self) -> str:
        return f"VrpSet({len(self._members)} VRPs)"
