"""Unit tests for RSA signing, verification, and key identity."""

import math
import random

import pytest

from repro.crypto import (
    KeyFactory,
    KeyPair,
    KeySizeError,
    RsaPublicKey,
    SignatureError,
    generate_keypair,
    key_id_of,
)


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(512, random.Random(7))


class TestSignVerify:
    def test_roundtrip(self, keypair):
        sig = keypair.sign(b"hello rpki")
        assert keypair.public.verify(b"hello rpki", sig)

    def test_wrong_message_rejected(self, keypair):
        sig = keypair.sign(b"hello rpki")
        assert not keypair.public.verify(b"hello rpkj", sig)

    def test_bitflip_rejected(self, keypair):
        sig = bytearray(keypair.sign(b"msg"))
        sig[0] ^= 0x01
        assert not keypair.public.verify(b"msg", bytes(sig))

    def test_wrong_length_rejected(self, keypair):
        sig = keypair.sign(b"msg")
        assert not keypair.public.verify(b"msg", sig + b"\x00")
        assert not keypair.public.verify(b"msg", sig[:-1])
        assert not keypair.public.verify(b"msg", b"")

    def test_wrong_key_rejected(self, keypair):
        other = generate_keypair(512, random.Random(8))
        sig = keypair.sign(b"msg")
        assert not other.public.verify(b"msg", sig)

    def test_empty_message(self, keypair):
        sig = keypair.sign(b"")
        assert keypair.public.verify(b"", sig)

    def test_signature_deterministic(self, keypair):
        assert keypair.sign(b"x") == keypair.sign(b"x")

    def test_oversized_sig_int_rejected(self, keypair):
        n_bytes = keypair.public.modulus_bytes
        too_big = (keypair.public.modulus + 1).to_bytes(n_bytes, "big")
        assert not keypair.public.verify(b"msg", too_big)

    def test_a_modulus_too_small_for_the_digest_raises_past_the_length_check(
            self):
        # No key pair this narrow can be generated; a key read from
        # elsewhere can still be handed to verify.
        with pytest.raises(KeySizeError):
            generate_keypair(256, random.Random(9))
        small = RsaPublicKey((1 << 255) | 1)
        assert small.modulus_bytes == 32
        assert not small.verify(b"msg", b"")
        with pytest.raises(SignatureError, match=r"too small .* \(32 bytes\)"):
            small.verify(b"msg", bytes(32))


class TestKeygen:
    def test_modulus_bits_exact(self):
        key = generate_keypair(512, random.Random(1))
        assert key.public.modulus_bits == 512

    def test_deterministic_from_seeded_rng(self):
        a = generate_keypair(512, random.Random(99))
        b = generate_keypair(512, random.Random(99))
        assert a.public.modulus == b.public.modulus and a.d == b.d

    def test_seeded_keygen_is_deterministic_and_counted_once(self):
        from repro.telemetry import default_registry

        keygen = default_registry().get("repro_crypto_keygen_total")
        before = keygen.value()
        a = generate_keypair(512, random.Random(123))
        assert keygen.value() == before + 1
        assert generate_keypair(512, random.Random(123)) == a
        assert generate_keypair(512, random.Random(124)) != a

    def test_rejects_tiny_modulus(self):
        with pytest.raises(KeySizeError):
            generate_keypair(128)

    def test_public_dict_roundtrip(self, keypair):
        # A key's wire form is the map {"e": exponent, "n": modulus}.
        from repro.crypto import RsaPublicKey, decode
        from repro.crypto.keys import write_public_key

        public = keypair.public
        fields = decode(write_public_key(public))
        assert fields == {"e": public.exponent, "n": public.modulus}
        assert RsaPublicKey(fields["n"], fields["e"]) == public


class TestKeyPairAndFactory:
    def test_key_id_derived(self, keypair):
        pair = KeyPair(private=keypair)
        assert pair.key_id == key_id_of(keypair.public)
        assert len(pair.key_id) == 20

    def test_keypair_sign_verify(self, keypair):
        pair = KeyPair(private=keypair)
        assert pair.verify(b"m", pair.sign(b"m"))

    def test_factory_reproducible(self):
        a = KeyFactory(seed=5).next_keypair()
        b = KeyFactory(seed=5).next_keypair()
        assert a.key_id == b.key_id

    def test_factory_sequence_distinct(self):
        factory = KeyFactory(seed=5)
        ids = {factory.next_keypair().key_id for _ in range(4)}
        assert len(ids) == 4
        assert factory.issued == 4

    def test_different_seeds_differ(self):
        assert (
            KeyFactory(seed=1).next_keypair().key_id
            != KeyFactory(seed=2).next_keypair().key_id
        )

    def test_cache_hit_is_same_object(self):
        a = KeyFactory(seed=77).next_keypair()
        b = KeyFactory(seed=77).next_keypair()
        assert a is b  # process-wide pool

    def test_repr_hides_private_material(self, keypair):
        pair = KeyPair(private=keypair)
        assert str(keypair.d) not in repr(pair)


class TestCrtAcceleration:
    """CRT private-key path: faster, byte-identical signatures."""

    def test_keygen_precomputes_crt_fields(self, keypair):
        assert keypair.p is not None and keypair.q is not None
        primes = [keypair.p, keypair.q] + [r for r, _d, _t in keypair.extra]
        assert math.prod(primes) == keypair.public.modulus
        assert len(set(primes)) == len(primes)
        assert keypair.d_p == keypair.d % (keypair.p - 1)
        assert keypair.d_q == keypair.d % (keypair.q - 1)
        assert keypair.q_inv == pow(keypair.q, -1, keypair.p)
        product = keypair.p * keypair.q
        for r_i, d_i, t_i in keypair.extra:
            assert d_i == keypair.d % (r_i - 1)
            assert t_i == pow(product, -1, r_i)
            product *= r_i

    def test_crt_signature_matches_plain_path(self, keypair):
        from repro.crypto import RsaPrivateKey

        plain = RsaPrivateKey(public=keypair.public, d=keypair.d)
        for message in (b"", b"x", b"hello rpki", bytes(range(256))):
            assert keypair.sign(message) == plain.sign(message)

    def test_plain_key_still_signs(self, keypair):
        from repro.crypto import RsaPrivateKey

        plain = RsaPrivateKey(public=keypair.public, d=keypair.d)
        assert keypair.public.verify(b"m", plain.sign(b"m"))

