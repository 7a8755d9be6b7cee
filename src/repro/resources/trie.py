"""A binary radix trie keyed by IP prefix.

Two hot paths in the reproduction need sub-linear prefix queries:

- RFC 6811 origin validation must find, for a route's prefix, every
  *covering* ROA (all stored prefixes on the path from the root to the
  route's node); and
- the BGP data plane must do longest-prefix-match forwarding among
  selected routes.

Both are walks down one trie path, so both are O(prefix length).  The trie
also supports subtree enumeration (everything *covered by* a prefix), which
the whack planner uses to find collateral damage.

One trie holds one address family; :class:`PrefixMap` wraps a pair of tries
behind a dict-like interface and is what the higher layers use.
"""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

from .ipaddr import Afi
from .prefix import Prefix

__all__ = ["PrefixTrie", "PrefixMap"]

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: list["_Node[V] | None"] = [None, None]
        self.value: V | None = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """A map from prefixes of one address family to values.

    Semantics follow :class:`dict` (one value per exact prefix; inserting
    twice overwrites) with three extra queries: :meth:`longest_match`,
    :meth:`covering` and :meth:`covered_by`.
    """

    def __init__(self, afi: Afi):
        self._afi = afi
        self._root: _Node[V] = _Node()
        self._size = 0

    @property
    def afi(self) -> Afi:
        return self._afi

    def __len__(self) -> int:
        return self._size

    def _descend(self, prefix: Prefix, create: bool = False) -> list[_Node[V]]:
        """The nodes on the path from the root toward *prefix*, root first.

        Without *create* the walk stops at the first missing child, so
        the path is ``prefix.length + 1`` nodes long exactly when the
        prefix's own node exists; with it the missing nodes are made.
        Every per-prefix operation is this walk plus what it does with
        the nodes.
        """
        if prefix.afi is not self._afi:
            raise ValueError(
                f"prefix {prefix} is {prefix.afi.name}, trie is {self._afi.name}"
            )
        node = self._root
        path = [node]
        length = prefix.length
        key = prefix.network >> (self._afi.bits - length)
        for shift in range(length - 1, -1, -1):
            bit = (key >> shift) & 1
            child = node.children[bit]
            if child is None:
                if not create:
                    break
                child = node.children[bit] = _Node()
            path.append(child)
            node = child
        return path

    def _find(self, prefix: Prefix) -> _Node[V] | None:
        """The node at exactly *prefix* (with or without a value)."""
        path = self._descend(prefix)
        return path[-1] if len(path) > prefix.length else None

    # -- mutation ----------------------------------------------------------

    def insert(self, prefix: Prefix, value: V) -> None:
        """Map *prefix* to *value*, overwriting any existing mapping."""
        node = self._descend(prefix, create=True)[-1]
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def get_or_insert(self, prefix: Prefix, factory) -> V:
        """The value at *prefix*, inserting ``factory()`` if absent.

        One trie walk where ``get`` + ``insert`` would take two — the
        bulk-build fast path for bucket-of-list indexes (``VrpSet``
        construction walks this once per VRP).
        """
        node = self._descend(prefix, create=True)[-1]
        if not node.has_value:
            node.value = factory()
            node.has_value = True
            self._size += 1
        return node.value  # type: ignore[return-value]

    def remove(self, prefix: Prefix) -> V:
        """Remove the exact mapping for *prefix*, returning its value.

        Raises :class:`KeyError` if absent.  Empty branches are pruned so
        long-lived tries (the relying party's cache across churn) do not
        leak nodes.
        """
        path = self._descend(prefix)
        node = path[-1]
        if len(path) <= prefix.length or not node.has_value:
            raise KeyError(str(prefix))
        value = node.value
        node.value = None
        node.has_value = False
        self._size -= 1
        # Prune the now-empty leaf chain, deepest node first.
        while len(path) > 1:
            node = path.pop()
            if node.has_value or any(node.children):
                break
            siblings = path[-1].children
            siblings[0 if siblings[0] is node else 1] = None
        return value  # type: ignore[return-value]

    # -- exact queries -------------------------------------------------------

    def get(self, prefix: Prefix, default: V | None = None) -> V | None:
        """The value mapped at exactly *prefix*, or *default*."""
        node = self._find(prefix)
        if node is None or not node.has_value:
            return default
        return node.value

    def __contains__(self, prefix: Prefix) -> bool:
        node = self._find(prefix)
        return node is not None and node.has_value

    def __getitem__(self, prefix: Prefix) -> V:
        node = self._find(prefix)
        if node is None or not node.has_value:
            raise KeyError(str(prefix))
        return node.value  # type: ignore[return-value]

    def __setitem__(self, prefix: Prefix, value: V) -> None:
        self.insert(prefix, value)

    # -- structural queries ---------------------------------------------------

    def covering(self, prefix: Prefix) -> Iterator[tuple[Prefix, V]]:
        """Yield every stored (prefix, value) that covers *prefix*.

        Yields shortest (least specific) first.  This is the query behind
        "is there a covering ROA?" in route-validity classification.
        """
        afi = self._afi
        network = prefix.network
        for depth, node in enumerate(self._descend(prefix)):
            if node.has_value:
                host_bits = afi.bits - depth
                stored = Prefix(afi, network >> host_bits << host_bits, depth)
                yield stored, node.value  # type: ignore[misc]

    def longest_match(self, prefix: Prefix) -> tuple[Prefix, V] | None:
        """The most-specific stored prefix covering *prefix*, if any.

        With a host prefix argument this is classic longest-prefix-match
        forwarding lookup.
        """
        best: tuple[Prefix, V] | None = None
        for hit in self.covering(prefix):
            best = hit
        return best

    def covered_by(self, prefix: Prefix) -> Iterator[tuple[Prefix, V]]:
        """Yield every stored (prefix, value) covered by *prefix*.

        Pre-order (shortest first, low branch before high).  The whack
        planner uses this to enumerate a certificate subtree.
        """
        node = self._find(prefix)
        if node is not None:
            yield from self._walk(node, prefix.network, prefix.length)

    def _walk(
        self, node: _Node[V], network: int, depth: int
    ) -> Iterator[tuple[Prefix, V]]:
        if node.has_value:
            yield Prefix(self._afi, network, depth), node.value  # type: ignore[misc]
        bits = self._afi.bits
        low, high = node.children
        if low is not None:
            yield from self._walk(low, network, depth + 1)
        if high is not None:
            yield from self._walk(high, network | (1 << (bits - 1 - depth)), depth + 1)

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """All (prefix, value) pairs in trie (address) order."""
        yield from self._walk(self._root, 0, 0)

    def keys(self) -> Iterator[Prefix]:
        for prefix, _ in self.items():
            yield prefix

    def values(self) -> Iterator[V]:
        for _, value in self.items():
            yield value


class PrefixMap(Generic[V]):
    """A dual-family prefix map: one :class:`PrefixTrie` per family.

    Presents the same interface as a single trie but accepts prefixes of
    either family, dispatching on ``prefix.afi``.
    """

    def __init__(self) -> None:
        self._tries = {afi: PrefixTrie[V](afi) for afi in Afi}

    def _trie(self, prefix: Prefix) -> PrefixTrie[V]:
        return self._tries[prefix.afi]

    def insert(self, prefix: Prefix, value: V) -> None:
        self._trie(prefix).insert(prefix, value)

    def get_or_insert(self, prefix: Prefix, factory) -> V:
        return self._trie(prefix).get_or_insert(prefix, factory)

    def remove(self, prefix: Prefix) -> V:
        return self._trie(prefix).remove(prefix)

    def get(self, prefix: Prefix, default: V | None = None) -> V | None:
        return self._trie(prefix).get(prefix, default)

    def covering(self, prefix: Prefix) -> Iterator[tuple[Prefix, V]]:
        return self._trie(prefix).covering(prefix)

    def longest_match(self, prefix: Prefix) -> tuple[Prefix, V] | None:
        return self._trie(prefix).longest_match(prefix)

    def covered_by(self, prefix: Prefix) -> Iterator[tuple[Prefix, V]]:
        return self._trie(prefix).covered_by(prefix)

    def items(self) -> Iterator[tuple[Prefix, V]]:
        for afi in Afi:
            yield from self._tries[afi].items()

    def keys(self) -> Iterator[Prefix]:
        for prefix, _ in self.items():
            yield prefix

    def values(self) -> Iterator[V]:
        for _, value in self.items():
            yield value

    def __len__(self) -> int:
        return sum(len(t) for t in self._tries.values())

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._trie(prefix)

    def __getitem__(self, prefix: Prefix) -> V:
        return self._trie(prefix)[prefix]

    def __setitem__(self, prefix: Prefix, value: V) -> None:
        self.insert(prefix, value)
