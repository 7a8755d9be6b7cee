"""Bounded LRU response cache keyed on VRP-set content hash + query.

Every cache key carries the serving VRP set's
:meth:`~repro.rp.vrp.VrpSet.content_hash` as its first component.  That
is the whole invalidation story: a refresh that changes nothing leaves
the hash — and therefore every cached answer — intact, while any VRP
change rotates the hash so *every* affected entry misses and is
recomputed against the new set.  No entry is ever served stale; entries
for dead epochs simply age out of the LRU tail.

The capacity bound makes the cache safe under adversarial query streams
(the Stalloris lesson applied to the serving side: an attacker who
enumerates unique queries evicts, but cannot grow memory).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

__all__ = ["CacheStats", "ResponseCache"]


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for one cache instance.

    A miss is counted by the :meth:`ResponseCache.put` of a new key: a
    lookup whose answer was never computed is not a miss."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ResponseCache:
    """A bounded LRU mapping ``(content_hash, query...)`` keys to answers."""

    __slots__ = ("capacity", "stats", "_entries")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def get(self, key: Hashable):
        """The cached answer for *key*, or ``None`` if there is none.

        ``None`` is never a legal cached value here (every API answer is
        a response object), so it marks the absence safely.
        """
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        else:
            self.stats.misses += 1
        entries[key] = value
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.stats.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (f"ResponseCache({len(self._entries)}/{self.capacity} "
                f"entries, {self.stats.hit_rate:.0%} hit rate)")
