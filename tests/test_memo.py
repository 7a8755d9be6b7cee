"""The two-generation bounded memo, at its bound and past it.

Every memo shares one bound, ``repro.memo.MAX_ENTRIES``; these tests
shrink it with ``monkeypatch``.
"""

import pytest

from repro import memo as memo_module
from repro.crypto import KeyFactory, keys
from repro.memo import GenerationMemo


def bounded(monkeypatch, max_entries: int) -> GenerationMemo:
    monkeypatch.setattr(memo_module, "MAX_ENTRIES", max_entries)
    return GenerationMemo()


def cycle(memo: GenerationMemo, distinct: int, rounds: int) -> tuple[int, int]:
    """Look up ``range(distinct)`` *rounds* times; ``(hits, misses)``."""
    hits = misses = 0
    for _ in range(rounds):
        for key in range(distinct):
            if memo.get(key) is None:
                misses += 1
                memo.put(key, str(key))
            else:
                hits += 1
    return hits, misses


@pytest.mark.parametrize("distinct", [8, 9])
def test_working_set_at_the_bound_and_one_past_it_stays_memoized(
    monkeypatch, distinct
):
    # A memo that clears itself when full computes everything again on
    # every pass once the working set is one entry past the bound.
    memo = bounded(monkeypatch, 8)
    hits, misses = cycle(memo, distinct, rounds=5)
    assert misses == distinct            # the first pass only
    assert hits == 4 * distinct
    assert len(memo) <= 2 * 8


def test_never_holds_more_than_two_generations(monkeypatch):
    memo = bounded(monkeypatch, 4)
    for key in range(1_000):
        memo.put(key, key + 1)
        assert len(memo) <= 8
    # The newest MAX_ENTRIES insertions are always retrievable.
    assert [memo.get(key) for key in range(996, 1_000)] == [
        997, 998, 999, 1_000
    ]
    assert memo.get(0) is None


def test_a_hit_in_the_previous_generation_is_promoted(monkeypatch):
    memo = bounded(monkeypatch, 2)
    memo.put("old", 1)
    memo.put("filler", 2)
    memo.put("turns-over", 3)            # {"old", "filler"} are previous
    assert memo.get("old") == 1          # promoted into the current one
    memo.put("turns-over-again", 4)      # drops what was not promoted
    assert memo.get("old") == 1
    assert memo.get("filler") is None


def test_key_id_memo_survives_its_bound(monkeypatch):
    small = bounded(monkeypatch, 2)
    monkeypatch.setattr(keys, "_KEY_ID_MEMO", small)
    factory = KeyFactory(seed=42)
    publics = [factory.next_keypair().public for _ in range(3)]
    first = [keys.key_id_of(public) for public in publics]
    for _ in range(3):
        assert [keys.key_id_of(public) for public in publics] == first
        assert len(small) <= 4
