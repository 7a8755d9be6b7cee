"""Property-based tests for the crypto layer."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import decode, generate_keypair, sha256, sha256_hex

from .reference_codec import encode

# One shared small keypair; hypothesis runs many examples.
_KEY = generate_keypair(512, random.Random(123))


encodable = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.binary(max_size=32)
    | st.text(max_size=32),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(encodable)
@settings(max_examples=200)
def test_encode_decode_roundtrip(value):
    assert decode(encode(value)) == value


@given(encodable, encodable)
def test_encoding_injective(a, b):
    if a != b:
        assert encode(a) != encode(b)


@given(st.binary(max_size=64))
def test_sha256_consistency(data):
    assert sha256(data).hex() == sha256_hex(data)
    assert len(sha256(data)) == 32


@given(st.binary(max_size=128))
@settings(max_examples=25, deadline=None)
def test_sign_verify_roundtrip(message):
    sig = _KEY.sign(message)
    assert _KEY.public.verify(message, sig)


@given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64))
@settings(max_examples=25, deadline=None)
def test_signature_binds_message(m1, m2):
    if m1 == m2:
        return
    sig = _KEY.sign(m1)
    assert not _KEY.public.verify(m2, sig)
