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
from typing import NamedTuple

__all__ = ["CacheStats", "ResponseCache"]


class CacheStats(NamedTuple):
    """Hit/miss/eviction accounting for one cache instance.

    A miss is a lookup that stored a new answer: a lookup whose answer
    was never computed is not a miss.  Equal to the plain tuple
    ``(hits, misses, evictions)``.
    """

    hits: int
    misses: int
    evictions: int


class ResponseCache(OrderedDict):
    """A bounded LRU mapping ``(content_hash, query...)`` keys to answers.

    Its owner works it with the mapping's own methods, so a request
    calls no Python here: a hit is ``get`` then ``move_to_end`` and
    ``hits += 1``; a miss stores the new key and, past ``capacity``,
    evicts the least recently used with ``popitem(last=False)`` and
    ``evictions += 1``.  Every miss stores a new key, so the misses are
    the entries held plus those evicted.  ``None`` is never a cached
    value, so ``get`` returning it marks a miss.
    """

    __slots__ = ("capacity", "hits", "evictions")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1: {capacity}")
        super().__init__()
        self.capacity = capacity
        self.hits = self.evictions = 0

    @property
    def stats(self) -> CacheStats:
        return CacheStats(self.hits, len(self) + self.evictions, self.evictions)

    def __repr__(self) -> str:
        return f"ResponseCache({len(self)}/{self.capacity} entries, {self.stats})"
