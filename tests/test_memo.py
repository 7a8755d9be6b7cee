"""The two-generation bounded memo, at its bound and past it."""

import pytest

from repro.crypto import KeyFactory, keys
from repro.memo import GenerationMemo


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
def test_working_set_at_the_bound_and_one_past_it_stays_memoized(distinct):
    # A memo that clears itself when full computes everything again on
    # every pass once the working set is one entry past the bound.
    memo = GenerationMemo(max_entries=8)
    hits, misses = cycle(memo, distinct, rounds=5)
    assert misses == distinct            # the first pass only
    assert hits == 4 * distinct
    assert len(memo) <= 2 * 8


def test_never_holds_more_than_two_generations():
    memo = GenerationMemo(max_entries=4)
    for key in range(1_000):
        memo.put(key, key + 1)
        assert len(memo) <= 8
    # The newest max_entries insertions are always retrievable.
    assert [memo.get(key) for key in range(996, 1_000)] == [
        997, 998, 999, 1_000
    ]
    assert memo.get(0) is None


def test_a_hit_in_the_previous_generation_is_promoted():
    memo = GenerationMemo(max_entries=2)
    memo.put("old", 1)
    memo.put("filler", 2)
    memo.put("turns-over", 3)            # {"old", "filler"} are previous
    assert memo.get("old") == 1          # promoted into the current one
    memo.put("turns-over-again", 4)      # drops what was not promoted
    assert memo.get("old") == 1
    assert memo.get("filler") is None


def test_unbounded():
    memo = GenerationMemo(max_entries=None)
    for key in range(100):
        memo.put(key, key + 1)
    assert len(memo) == 100 and memo.get(0) == 1


def test_key_id_memo_survives_its_bound(monkeypatch):
    small = GenerationMemo(max_entries=2)
    monkeypatch.setattr(keys, "_KEY_ID_MEMO", small)
    factory = KeyFactory(seed=42, bits=512)
    publics = [factory.next_keypair().public for _ in range(3)]
    first = [keys.key_id_of(public) for public in publics]
    for _ in range(3):
        assert [keys.key_id_of(public) for public in publics] == first
        assert len(small) <= 4
