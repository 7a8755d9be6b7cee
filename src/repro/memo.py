"""A bounded memo that forgets by generation, not wholesale.

The relying party's verification and parse memos and the key-identifier
memo are pure-function caches over content-addressed keys: losing an
entry costs a recomputation, never a wrong answer.  What they must not
do is lose *everything* at once — a memo that clears itself when full
makes a working set one entry past its bound recompute every entry on
every pass.

:class:`GenerationMemo` keeps two dictionaries.  Insertions go to the
*current* generation; when it holds :data:`MAX_ENTRIES` keys it becomes
the *previous* generation and the old previous one is dropped.  A lookup
that finds its key only in the previous generation promotes it, so
whatever was used during the last :data:`MAX_ENTRIES` insertions
survives the next turn-over.  At most ``2 * MAX_ENTRIES`` entries are
held.  Every memo shares that one bound.
"""

from __future__ import annotations

from typing import Generic, Hashable, TypeVar

__all__ = ["MAX_ENTRIES", "GenerationMemo"]

# Keys per generation of every memo.  Generous for any simulated
# deployment; bounds long-running relying parties and monitors.
MAX_ENTRIES = 65536

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class GenerationMemo(Generic[K, V]):
    """Two-generation bounded mapping.  Values must not be ``None``."""

    __slots__ = ("_current", "_previous")

    def __init__(self):
        self._current: dict[K, V] = {}
        self._previous: dict[K, V] = {}

    def __len__(self) -> int:
        return len(self._current) + len(self._previous)

    def get(self, key: K) -> V | None:
        value = self._current.get(key)
        if value is None and self._previous:
            value = self._previous.pop(key, None)
            if value is not None:
                self.put(key, value)
        return value

    def put(self, key: K, value: V) -> None:
        current = self._current
        if len(current) >= MAX_ENTRIES:
            self._previous = current
            current = self._current = {}
        current[key] = value
