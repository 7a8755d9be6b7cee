"""A map keyed by IP prefix, answering covering and longest-match queries.

Two hot paths in the reproduction need sub-linear prefix queries:

- RFC 6811 origin validation must find, for a route's prefix, every
  *covering* ROA; and
- the BGP data plane must do longest-prefix-match forwarding among
  selected routes.

A prefix that covers ``P`` is ``P`` cut to a shorter length, so both are
one hash probe per prefix length *in use* that is no longer than the
query's — at most 33 (IPv4) or 129 (IPv6); the flat generated worlds
store /24s only — into a table of the prefixes stored at that length.
A stored prefix costs one tuple and one dictionary slot.
"""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

from .ipaddr import Afi
from .prefix import INT_HASH_MODULUS, Prefix, hash_key

__all__ = ["PrefixMap"]

V = TypeVar("V")


def _key(prefix: Prefix) -> int | bytes:
    """*prefix*'s significant bits, as the key of its length's table.

    The prefixes here are chosen by the authorities whose objects are
    being validated, so the key's hash must not be theirs to choose:
    see :func:`repro.resources.prefix.hash_key`.
    """
    return hash_key(prefix.network >> (prefix.afi.bits - prefix.length))


def _address_order(hit: tuple[Prefix, V]) -> tuple[int, int]:
    return hit[0].network, hit[0].length


class PrefixMap(Generic[V]):
    """A map from prefixes of either address family to values.

    Semantics follow :class:`dict` (one value per exact prefix; inserting
    twice overwrites) with two extra queries: :meth:`covering` and
    :meth:`longest_match`.
    """

    def __init__(self) -> None:
        # Families are keyed by width: an Afi member hashes in Python.
        # width -> prefix length -> significant bits -> (prefix, value)
        self._tables: dict[int, dict[int, dict]] = {afi.bits: {} for afi in Afi}
        # width -> (length, host bits, table) per length in use, ascending.
        self._levels: dict[int, tuple] = {afi.bits: () for afi in Afi}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _relevel(self, bits: int) -> None:
        """A length of the *bits*-wide family came into use or went out."""
        tables = self._tables[bits]
        self._levels[bits] = tuple(
            (length, bits - length, tables[length]) for length in sorted(tables)
        )

    def _table(self, prefix: Prefix) -> dict:
        """The table of *prefix*'s length, put into use if it was not."""
        tables = self._tables[prefix.afi.bits]
        table = tables.get(prefix.length)
        if table is None:
            table = tables[prefix.length] = {}
            self._relevel(prefix.afi.bits)
        return table

    # -- mutation ----------------------------------------------------------

    def insert(self, prefix: Prefix, value: V) -> None:
        """Map *prefix* to *value*, overwriting any existing mapping."""
        table, key = self._table(prefix), _key(prefix)
        if key not in table:
            self._size += 1
        table[key] = (prefix, value)

    def get_or_insert(self, prefix: Prefix, factory) -> V:
        """The value at *prefix*, inserting ``factory()`` if absent.

        The bulk-build path for bucket-of-list indexes (``VrpSet``
        construction comes through here once per VRP).
        """
        table, key = self._table(prefix), _key(prefix)
        hit = table.get(key)
        if hit is None:
            hit = table[key] = (prefix, factory())
            self._size += 1
        return hit[1]

    def remove(self, prefix: Prefix) -> V:
        """Remove the exact mapping for *prefix*, returning its value.

        Raises :class:`KeyError` if absent.  A length's table goes with
        its last prefix, so queries probe only lengths that hold one.
        """
        tables = self._tables[prefix.afi.bits]
        table = tables.get(prefix.length)
        hit = None if table is None else table.pop(_key(prefix), None)
        if hit is None:
            raise KeyError(str(prefix))
        self._size -= 1
        if not table:
            del tables[prefix.length]
            self._relevel(prefix.afi.bits)
        return hit[1]

    # -- exact queries -------------------------------------------------------

    def _find(self, prefix: Prefix) -> tuple[Prefix, V] | None:
        table = self._tables[prefix.afi.bits].get(prefix.length)
        return None if table is None else table.get(_key(prefix))

    def get(self, prefix: Prefix, default: V | None = None) -> V | None:
        """The value mapped at exactly *prefix*, or *default*."""
        hit = self._find(prefix)
        return default if hit is None else hit[1]

    def __contains__(self, prefix: Prefix) -> bool:
        return self._find(prefix) is not None

    def __getitem__(self, prefix: Prefix) -> V:
        hit = self._find(prefix)
        if hit is None:
            raise KeyError(str(prefix))
        return hit[1]

    # -- structural queries ---------------------------------------------------

    def covering(self, prefix: Prefix) -> tuple[tuple[Prefix, V], ...]:
        """Every stored (prefix, value) that covers *prefix*, shortest
        (least specific) first.

        This is the query behind "is there a covering ROA?" in
        route-validity classification: one loop, one hash probe per
        length in use, into one tuple.
        """
        # The slots, not the properties: a property is a Python call per
        # read, and this loop is every route classification's.
        network, longest = prefix._network, prefix._length
        hits = []
        for length, host_bits, table in self._levels[prefix._afi.bits]:
            if length > longest:
                break
            bits = network >> host_bits
            # hash_key(bits), inline: as a call per probe it adds a fifth
            # to a longest match over seventeen lengths.
            hit = table.get(
                bits if bits < INT_HASH_MODULUS else bits.to_bytes(16, "big")
            )
            if hit is not None:
                hits.append(hit)
        return tuple(hits)

    def longest_match(self, prefix: Prefix) -> tuple[Prefix, V] | None:
        """The most-specific stored prefix covering *prefix*, if any.

        With a host prefix argument this is classic longest-prefix-match
        forwarding lookup.
        """
        hits = self.covering(prefix)
        return hits[-1] if hits else None

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """All (prefix, value) pairs: IPv4 first, then by network address,
        a prefix before the longer ones that start where it does."""
        for tables in self._tables.values():
            hits = [hit for table in tables.values() for hit in table.values()]
            hits.sort(key=_address_order)
            yield from hits

    def keys(self) -> Iterator[Prefix]:
        for prefix, _ in self.items():
            yield prefix
