"""Differential fuzzing: the CTLV codec vs the reference codec.

CURE and "The Fault in Our Drafts" (PAPERS.md) found real relying-party
bugs exactly where object codecs were rewritten for speed; the defense
here is an oracle.  ``reference_codec.py`` next to this file preserves the
original recursive codec, and this suite pins the codec of
:mod:`repro.crypto.encoding` — its typed leaf writers, and the generic
walk :func:`~repro.crypto.encoding.decode` over its leaf readers — to it
three ways:

1. **Byte identity** — thousands of seeded random value trees written
   through the leaf writers give the reference encoder's bytes;
2. **Round-trip agreement** — both decoders recover the same value;
3. **Rejection agreement** — mutated/truncated encodings and every named
   malformed-input class (non-minimal integers, unsorted or duplicate
   map keys, container keys, trailing bytes, truncated
   headers/payloads, deep nesting, payloads on empty-payload tags, bad
   UTF-8, unknown tags) are accepted or rejected identically, with the
   same message, and accepted mutants decode identically.

Everything is seeded — a failure reproduces from the printed seed.
"""

import random

import pytest

from repro.crypto import encoding as engine
from repro.crypto.encoding import (
    LIST,
    MAP,
    write_bytes,
    write_container,
    write_int,
    write_str,
)
from repro.crypto.errors import EncodingError
from repro.rpki.objects import write_str_map

from . import reference_codec as reference

N_VALUES = 1500
MUTATIONS_PER_VALUE = 4
SEED = 0xC7111

_KEY_POOL = ["type", "serial", "n", "e", "sia", "", "aaa", "zzz"]


# Every named malformed-input class, as (name, bytes).  Also planted
# inside whole RPKI objects by tests/rpki/test_parse_differential.py.
MALFORMED_CLASSES = [
    ("truncated_header", b"I\x00\x00"),
    ("truncated_payload", b"B\x00\x00\x00\x05abc"),
    ("trailing_bytes", b"N\x00\x00\x00\x00X"),
    ("empty_int", b"I\x00\x00\x00\x00"),
    ("padded_positive_int", b"I\x00\x00\x00\x02\x00\x01"),
    ("padded_negative_int", b"I\x00\x00\x00\x02\xff\xff"),
    # -128's canonical form keeps a spare sign byte (b"\xff\x80");
    # the width-minimal two's complement b"\x80" must be rejected.
    ("tight_negative_int", b"I\x00\x00\x00\x01\x80"),
    ("payload_on_null", b"N\x00\x00\x00\x01x"),
    ("payload_on_true", b"T\x00\x00\x00\x01x"),
    ("payload_on_false", b"F\x00\x00\x00\x01x"),
    ("bad_utf8", b"S\x00\x00\x00\x02\xff\xfe"),
    ("unknown_tag", b"Z\x00\x00\x00\x00"),
    ("unsorted_map_keys",
     b"M\x00\x00\x00\x14"
     b"I\x00\x00\x00\x01\x02" b"N\x00\x00\x00\x00"
     b"I\x00\x00\x00\x01\x01" b"N\x00\x00\x00\x00"),
    ("duplicate_map_keys",
     b"M\x00\x00\x00\x14"
     b"I\x00\x00\x00\x01\x01" b"N\x00\x00\x00\x00"
     b"I\x00\x00\x00\x01\x01" b"N\x00\x00\x00\x00"),
    # {[1]: 2} and {{}: 2}: Python cannot hold either as a dictionary.
    ("list_as_map_key",
     b"M\x00\x00\x00\x11"
     b"L\x00\x00\x00\x06" b"I\x00\x00\x00\x01\x01"
     b"I\x00\x00\x00\x01\x02"),
    ("map_as_map_key",
     b"M\x00\x00\x00\x0b"
     b"M\x00\x00\x00\x00" b"I\x00\x00\x00\x01\x02"),
]


def _random_scalar(rng: random.Random):
    kind = rng.randrange(7)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        # Bias toward two's-complement boundaries, where minimality bites.
        base = rng.choice([0, 1, 127, 128, 255, 256, 2**63, 2**255])
        return rng.choice([-1, 1]) * (base + rng.randrange(3))
    if kind == 3:
        return rng.getrandbits(rng.randrange(1, 512))
    if kind == 4:
        return rng.randbytes(rng.randrange(24))
    if kind == 5:
        return "".join(rng.choice("ab€∆ñ☃0\n") for _ in range(rng.randrange(12)))
    return rng.choice(_KEY_POOL)


def _random_key(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(_KEY_POOL)
    if kind == 1:
        return rng.randrange(-1000, 1000)
    if kind == 2:
        return rng.randbytes(rng.randrange(6))
    return rng.choice([None, True, False])


def random_tree(rng: random.Random, depth: int = 0):
    """A random ``Encodable`` value, container-biased near the root."""
    if depth < 4 and rng.random() < 0.5:
        if rng.random() < 0.5:
            return [random_tree(rng, depth + 1)
                    for _ in range(rng.randrange(5))]
        return {_random_key(rng): random_tree(rng, depth + 1)
                for _ in range(rng.randrange(5))}
    return _random_scalar(rng)


def written(value) -> bytes:
    """*value* through the leaf writers.

    Null and the booleans have none (no object carries them), so they
    come from the reference; a map's pairs are sorted by their bytes,
    which sorts them by key, since no encoded key is a prefix of another.
    """
    if value is None or isinstance(value, bool):
        return reference.encode(value)
    if isinstance(value, int):
        return write_int(value)
    if isinstance(value, str):
        return write_str(value)
    if isinstance(value, bytes):
        return write_bytes(value)
    if isinstance(value, list):
        return write_container(LIST, b"".join(map(written, value)))
    return write_container(MAP, b"".join(sorted(
        written(key) + written(item) for key, item in value.items())))


def _mutate(blob: bytes, rng: random.Random) -> bytes:
    """One structural mutation: bit flip, truncation, insertion, or splice."""
    kind = rng.randrange(4)
    if kind == 0 and blob:
        index = rng.randrange(len(blob))
        return blob[:index] + bytes([blob[index] ^ (1 << rng.randrange(8))]) \
            + blob[index + 1:]
    if kind == 1 and blob:
        return blob[: rng.randrange(len(blob))]
    if kind == 2:
        index = rng.randrange(len(blob) + 1)
        return blob[:index] + rng.randbytes(rng.randrange(1, 6)) + blob[index:]
    return blob + rng.randbytes(rng.randrange(1, 6))


def _decode_outcome(codec, blob: bytes):
    """(accepted?, value-or-None).  Any EncodingError counts as rejection."""
    try:
        return True, codec.decode(blob)
    except EncodingError:
        return False, None


class TestByteIdentity:
    def test_engine_matches_reference_on_random_trees(self):
        rng = random.Random(SEED)
        for index in range(N_VALUES):
            value = random_tree(rng)
            new_bytes = written(value)
            old_bytes = reference.encode(value)
            assert new_bytes == old_bytes, (
                f"seed {SEED} value #{index}: writers {new_bytes.hex()} != "
                f"reference {old_bytes.hex()} for {value!r}"
            )
            decoded = engine.decode(new_bytes)
            assert decoded == reference.decode(new_bytes), (
                f"seed {SEED} value #{index}")
            # Writing the decoded value again is a fixed point.
            assert written(decoded) == new_bytes

    def test_unsorted_dict_iteration_is_canonicalized(self):
        # The one writer that sorts (string maps: manifest entries, a
        # vCard) must put pairs in any order into the reference's order.
        rng = random.Random(SEED + 1)
        for _ in range(200):
            keys = rng.sample(range(-500, 500), rng.randrange(2, 9))
            mapping = {str(k): str(rng.randrange(100)) for k in keys}
            assert write_str_map(mapping) == reference.encode(mapping)
            shuffled = list(mapping.items())
            rng.shuffle(shuffled)
            assert write_str_map(dict(shuffled)) == write_str_map(mapping)


class TestRejectionAgreement:
    def test_mutated_encodings_agree(self):
        rng = random.Random(SEED + 2)
        accepted = rejected = 0
        for index in range(N_VALUES // 2):
            blob = reference.encode(random_tree(rng))
            for _ in range(MUTATIONS_PER_VALUE):
                mutant = _mutate(blob, rng)
                ok_new, value_new = _decode_outcome(engine, mutant)
                ok_old, value_old = _decode_outcome(reference, mutant)
                assert ok_new == ok_old, (
                    f"seed {SEED + 2} value #{index}: codecs disagree on "
                    f"mutant {mutant.hex()} (engine={ok_new})"
                )
                if ok_new:
                    accepted += 1
                    assert value_new == value_old
                else:
                    rejected += 1
        # The mutator must actually exercise both outcomes.
        assert accepted > 0 and rejected > 0

    @pytest.mark.parametrize("name,blob", MALFORMED_CLASSES)
    def test_named_malformed_classes_rejected_by_both(self, name, blob):
        ok_new, _ = _decode_outcome(engine, blob)
        ok_old, _ = _decode_outcome(reference, blob)
        assert not ok_new, f"engine accepted {name}"
        assert not ok_old, f"reference accepted {name}"

    def test_canonical_spare_sign_bytes_accepted_by_both(self):
        # The flip side of the minimality rule: the canonical form of
        # -(2^(8k-1)) and 2^(8k-1) carries a spare sign byte, and both
        # decoders must accept it (it is what both encoders emit).
        for value in (-128, 128, -32768, 32768, 0, -1):
            blob = write_int(value)
            assert blob == reference.encode(value)
            assert engine.decode(blob) == value
            assert reference.decode(blob) == value


class TestNestingCap:
    def _nested_list_bytes(self, depth: int) -> bytes:
        body = b"N\x00\x00\x00\x00"
        for _ in range(depth):
            body = b"L" + len(body).to_bytes(4, "big") + body
        return body

    def test_depth_at_cap_accepted_by_both(self):
        value = 7
        for _ in range(engine.MAX_NESTING):
            value = [value]
        blob = written(value)
        assert blob == reference.encode(value)
        assert engine.decode(blob) == reference.decode(blob) == value

    def test_decode_past_cap_rejected_by_both(self):
        blob = self._nested_list_bytes(engine.MAX_NESTING + 1)
        for codec in (engine, reference):
            with pytest.raises(EncodingError, match="nesting deeper"):
                codec.decode(blob)

    def test_nested_bomb_rejected_deterministically(self):
        from repro.repository.faults import nested_bomb

        for codec in (engine, reference):
            with pytest.raises(EncodingError, match="nesting deeper"):
                codec.decode(nested_bomb())


class TestErrorMessageParity:
    """Same rejection *class*, same message — diagnostics did not drift."""

    CASES = [
        b"I\x00\x00",
        b"B\x00\x00\x00\x05abc",
        b"N\x00\x00\x00\x00XY",
        b"I\x00\x00\x00\x00",
        b"I\x00\x00\x00\x02\x00\x01",
        b"T\x00\x00\x00\x01x",
        b"S\x00\x00\x00\x02\xff\xfe",
        b"Z\x00\x00\x00\x00",
        b"M\x00\x00\x00\x14"
        b"I\x00\x00\x00\x01\x02" b"N\x00\x00\x00\x00"
        b"I\x00\x00\x00\x01\x01" b"N\x00\x00\x00\x00",
        dict(MALFORMED_CLASSES)["list_as_map_key"],
    ]

    @pytest.mark.parametrize("blob", CASES)
    def test_messages_match(self, blob):
        with pytest.raises(EncodingError) as new_error:
            engine.decode(blob)
        with pytest.raises(EncodingError) as old_error:
            reference.decode(blob)
        assert str(new_error.value) == str(old_error.value)
