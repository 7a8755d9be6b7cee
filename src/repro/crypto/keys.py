"""Key identities and reproducible key generation for simulations.

A :class:`KeyPair` is an RSA keypair plus the derived *key identifier* —
the analog of the X.509 Subject Key Identifier that RPKI certificates use
to link a certificate to the key it certifies (and that key rollover, per
RFC 6489, rotates).

:class:`KeyFactory` hands out reproducible keypairs from a seed.  A model
RPKI can contain thousands of authorities; generating RSA keys one by one
dominates runtime, so the factory also maintains a pool of pre-generated
keys per seed, shared process-wide.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from ..memo import GenerationMemo
from .encoding import LIST, MAP, write_container, write_int, write_str
from .hashing import fingerprint, sha256
from .rsa import RsaPrivateKey, RsaPublicKey, generate_keypair

__all__ = ["KeyPair", "KeyFactory", "key_id_of", "write_public_key"]


# key_id_of memo.  Internet-scale worlds share one EE key per authority,
# so build_certificate derives the same key id tens of thousands of times;
# the id is a pure function of (modulus, exponent).  Bounded so a run that
# churns through endless throwaway keys cannot grow it without limit.
_KEY_ID_MEMO: GenerationMemo[tuple[int, int], str] = GenerationMemo()

# The modulus size of every factory's keys.  It is also hashed into each
# key's stream seed, so the key stream stays the one it always was.
KEY_BITS = 512


# The two encoded map keys of a public key's wire form, in wire order:
# written here, read by the certificate reader (repro.rpki.cert).
EXPONENT_KEY, MODULUS_KEY = write_str("e"), write_str("n")


def write_public_key(public: RsaPublicKey) -> bytes:
    """The wire form of *public*: the map ``{"e": exponent, "n": modulus}``.

    What a certificate carries as its subject key, and what the key
    identifier hashes.
    """
    return write_container(MAP, b"".join((
        EXPONENT_KEY, write_int(public.exponent),
        MODULUS_KEY, write_int(public.modulus),
    )))


def key_id_of(public: RsaPublicKey) -> str:
    """The key identifier: a hex fingerprint of the canonical public key."""
    memo_key = (public.modulus, public.exponent)
    key_id = _KEY_ID_MEMO.get(memo_key)
    if key_id is None:
        key_id = fingerprint(write_public_key(public), length=20)
        _KEY_ID_MEMO.put(memo_key, key_id)
    return key_id


@dataclass(frozen=True)
class KeyPair:
    """An RSA keypair with its derived key identifier."""

    private: RsaPrivateKey
    key_id: str = field(default="")

    def __post_init__(self) -> None:
        if not self.key_id:
            object.__setattr__(self, "key_id", key_id_of(self.private.public))

    @property
    def public(self) -> RsaPublicKey:
        return self.private.public

    def sign(self, message: bytes) -> bytes:
        return self.private.sign(message)

    def verify(self, message: bytes, signature: bytes) -> bool:
        return self.public.verify(message, signature)

    def __repr__(self) -> str:
        return f"KeyPair(key_id={self.key_id!r})"


class KeyFactory:
    """Reproducible keypair source.

    Two factories built with the same seed produce the same
    sequence of keypairs, so an entire simulated RPKI — object hashes,
    signatures, manifests — is a pure function of its seed.

    A process-wide cache keyed by ``(seed, KEY_BITS, index)`` means re-running
    a scenario (every test, every benchmark iteration) reuses keys instead
    of paying keygen again.
    """

    _cache: dict[tuple[int, int, int], KeyPair] = {}
    _cache_lock = threading.Lock()

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._index = 0

    @property
    def issued(self) -> int:
        """How many keypairs this factory instance has handed out."""
        return self._index

    def next_keypair(self) -> KeyPair:
        """The next keypair in this factory's deterministic sequence."""
        index = self._index
        self._index += 1
        cache_key = (self._seed, KEY_BITS, index)
        with self._cache_lock:
            cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        rng = random.Random(self.stream_seed(index))
        pair = KeyPair(private=generate_keypair(KEY_BITS, rng))
        with self._cache_lock:
            self._cache[cache_key] = pair
        return pair

    def stream_seed(self, index: int) -> int:
        """The RNG seed for keypair *index* of this factory's sequence.

        Each index derives its own RNG stream, so key #k is the same
        whether or not keys #0..k-1 came from the process-wide cache.
        """
        return int.from_bytes(
            sha256(write_container(LIST, b"".join(
                map(write_int, (self._seed, KEY_BITS, index))))), "big"
        )
