"""Unit tests for the canonical CTLV encoding.

``src/`` writes values of declared types only, so the trees here are
encoded by the reference codec, the encoder tests and tools use.
"""

import pytest

from repro.crypto import EncodingError, decode

from .reference_codec import encode


class TestRoundtrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            255,
            256,
            -256,
            2**128,
            -(2**128),
            b"",
            b"\x00\xff",
            "",
            "hello",
            "préfixe",  # non-ASCII
            [],
            [1, "two", b"three", None],
            [[1], [2, [3]]],
            {},
            {"a": 1, "b": [2, 3]},
            {1: "int key", "s": "str key", b"b": "bytes key"},
        ],
    )
    def test_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_tuple_decodes_as_list(self):
        assert decode(encode((1, 2))) == [1, 2]


class TestDeterminism:
    def test_dict_insertion_order_irrelevant(self):
        a = {"x": 1, "y": 2, "z": 3}
        b = {"z": 3, "x": 1, "y": 2}
        assert encode(a) == encode(b)

    def test_nested_dicts_deterministic(self):
        a = {"outer": {"p": 1, "q": 2}}
        b = {"outer": {"q": 2, "p": 1}}
        assert encode(a) == encode(b)

    def test_distinct_values_distinct_bytes(self):
        seen = set()
        for value in [0, False, None, "", b"", [], {}, "0", b"0"]:
            blob = encode(value)
            assert blob not in seen
            seen.add(blob)


class TestStrictDecoding:
    def test_rejects_trailing_garbage(self):
        with pytest.raises(EncodingError):
            decode(encode(1) + b"\x00")

    def test_rejects_truncation(self):
        blob = encode([1, 2, 3])
        with pytest.raises(EncodingError):
            decode(blob[:-1])

    def test_rejects_unknown_tag(self):
        with pytest.raises(EncodingError):
            decode(b"Z\x00\x00\x00\x00")

    def test_rejects_non_minimal_int(self):
        # 1 encoded with a leading zero byte.
        with pytest.raises(EncodingError):
            decode(b"I\x00\x00\x00\x02\x00\x01")

    def test_rejects_empty_int(self):
        with pytest.raises(EncodingError):
            decode(b"I\x00\x00\x00\x00")

    def test_rejects_unsorted_map_keys(self):
        # Hand-build a map whose keys are out of canonical order.
        key_b = encode("b")
        key_a = encode("a")
        val = encode(1)
        body = key_b + val + key_a + val
        blob = b"M" + len(body).to_bytes(4, "big") + body
        with pytest.raises(EncodingError):
            decode(blob)

    def test_rejects_duplicate_map_keys(self):
        key = encode("a")
        val = encode(1)
        body = key + val + key + val
        blob = b"M" + len(body).to_bytes(4, "big") + body
        with pytest.raises(EncodingError):
            decode(blob)

    def test_rejects_payload_on_null(self):
        with pytest.raises(EncodingError):
            decode(b"N\x00\x00\x00\x01\x00")

    def test_rejects_bad_utf8(self):
        with pytest.raises(EncodingError):
            decode(b"S\x00\x00\x00\x01\xff")

    def test_rejects_empty_input(self):
        with pytest.raises(EncodingError, match="truncated header"):
            decode(b"")
