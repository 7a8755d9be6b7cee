"""Textbook-correct RSA signatures with PKCS#1-v1.5-style padding.

This is the reproduction's stand-in for the production RPKI's RSA/SHA-256
CMS signatures.  The paper's attacks never forge signatures — they abuse
*authorized* keys — so what the substrate must provide is (1) unforgeability
against the simulation's own tampering (manifest/CRL checks must notice a
flipped bit) and (2) reproducibility (seeded keygen).  Both hold here.

Do not use this module outside the simulation: it has no blinding, no
constant-time guarantees, and default key sizes are chosen for test speed.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from hashlib import sha256 as _sha256
from typing import NamedTuple

from ..telemetry import default_registry
from .errors import KeySizeError, SignatureError
from .prime import generate_prime

__all__ = [
    "RsaPublicKey",
    "RsaPrivateKey",
    "generate_keypair",
]

# Keys are immutable values with no injection point, so signature
# telemetry binds to the process-global registry at import time (the
# default registry is a permanent singleton, only ever reset in place;
# a reset zeroes a bound child and keeps it the one the registry reads).
_SIGN_TOTAL = default_registry().counter(
    "repro_crypto_sign_total", help="RSA signatures produced"
)
_VERIFY_TOTAL = default_registry().counter(
    "repro_crypto_verify_total",
    help="RSA signature verifications, by outcome",
    labelnames=("outcome",),
)
_KEYGEN_TOTAL = default_registry().counter(
    "repro_crypto_keygen_total", help="RSA keypairs generated"
)
_VERIFIED = {True: _VERIFY_TOTAL.bind(outcome="accepted"),
             False: _VERIFY_TOTAL.bind(outcome="rejected")}

# SHA-256 DigestInfo prefix from RFC 8017, kept verbatim so padded messages
# are structured exactly like real PKCS#1 v1.5 signatures.
_SHA256_DIGEST_INFO = bytes.fromhex(
    "3031300d060960864801650304020105000420"
)

# The key profile of RFC 7935 section 3.1: the public exponent is 65537
# and the modulus 2048 bits.  The simulation signs with narrower keys for
# speed (keys.KEY_BITS), so a certificate's key may be as narrow as
# MIN_MODULUS_BITS, never wider than the RFC's 2048.  An authority picks
# its keys, so without these bounds it would pick what each verification
# of its objects costs: ``pow`` grows with the exponent's width and
# superlinearly with the modulus's.  The floor is the narrowest modulus
# a SHA-256 signature fits under: its EMSA-PKCS1-v1_5 encoding is the
# framing (3 bytes), the DigestInfo, the digest and at least 8 bytes of
# padding, as wide as the modulus.
PUBLIC_EXPONENT = 65537
MIN_MODULUS_BYTES = 3 + len(_SHA256_DIGEST_INFO) + 32 + 8
MIN_MODULUS_BITS = 8 * (MIN_MODULUS_BYTES - 1) + 1
MAX_MODULUS_BITS = 2048


class RsaPublicKey(NamedTuple):
    """An RSA public key (modulus, exponent).

    A named tuple, so a key is its own exact fingerprint: the
    verification memos key on it as they would on ``(modulus,
    exponent)``, with no hashing of the key's bytes.
    """

    modulus: int
    exponent: int = PUBLIC_EXPONENT

    @property
    def modulus_bits(self) -> int:
        return self.modulus.bit_length()

    @property
    def modulus_bytes(self) -> int:
        return (self.modulus_bits + 7) // 8

    def verify(self, message: bytes, signature: bytes) -> bool:
        """True iff *signature* is a valid signature of *message*.

        Structural errors (wrong length) return False rather than raising,
        so relying-party code can treat any bad signature uniformly.
        """
        ok = self._check_signature(message, signature)
        _VERIFIED[ok].inc()
        return ok

    def _check_signature(self, message: bytes, signature: bytes) -> bool:
        """The uninstrumented check (benchmarked against :meth:`verify`).

        The recovered representative is compared as bytes with the
        padding :func:`_pad` makes: below the modulus, it has exactly
        one big-endian form of the modulus's width.
        """
        modulus, exponent = self
        size = (modulus.bit_length() + 7) >> 3
        if len(signature) != size:
            return False
        sig_int = int.from_bytes(signature, "big")
        if sig_int >= modulus:
            return False
        expected = _padding_prefix(size) + _sha256(message).digest()
        return pow(sig_int, exponent, modulus).to_bytes(size, "big") \
            == expected


@dataclass(frozen=True)
class RsaPrivateKey:
    """An RSA private key; carries its public half.

    Keys produced by :func:`generate_keypair` additionally carry the CRT
    precomputation (``p``, ``q``, ``d_p``, ``d_q``, ``q_inv``; plus
    ``extra`` ``(r_i, d_i, t_i)`` triplets for multi-prime keys per
    RFC 8017 §3.2), which :meth:`sign` uses to replace one full-width
    modular exponentiation with several fractional-width ones — modular
    exponentiation cost grows superlinearly in operand width, so three
    third-width pows beat two half-width ones, which beat one full-width
    one.  Every path produces identical signature bytes (same
    mathematical value; pinned by ``tests/crypto/test_rsa.py``), so keys
    built from ``(public, d)`` alone — older pickles, hand-constructed
    fixtures — keep working on the plain path, and two-prime keys on the
    classic CRT path.
    """

    public: RsaPublicKey
    d: int
    p: int | None = None
    q: int | None = None
    d_p: int | None = None
    d_q: int | None = None
    q_inv: int | None = None
    # Multi-prime tail (RFC 8017 ``(r_i, d_i, t_i)``): prime, d mod
    # (r_i - 1), and the inverse of the preceding primes' product mod r_i.
    extra: tuple[tuple[int, int, int], ...] = ()

    def sign(self, message: bytes) -> bytes:
        """Sign SHA-256(message) with PKCS#1-v1.5-style padding."""
        _SIGN_TOTAL.inc()
        return self._sign_raw(message)

    def _sign_raw(self, message: bytes) -> bytes:
        """The uninstrumented operation (benchmarked against :meth:`sign`)."""
        padded = _pad(message, self.public.modulus_bytes)
        m = int.from_bytes(padded, "big")
        if m >= self.public.modulus:
            raise SignatureError("message representative exceeds modulus")
        s = self._power(m)
        return s.to_bytes(self.public.modulus_bytes, "big")

    def _power(self, m: int) -> int:
        """``m ** d  (mod n)``, via CRT when the precomputation is present."""
        if self.p is None or self.q is None:
            return pow(m, self.d, self.public.modulus)
        m1 = pow(m % self.p, self.d_p, self.p)
        m2 = pow(m % self.q, self.d_q, self.q)
        h = (self.q_inv * (m1 - m2)) % self.p
        x = m2 + h * self.q
        if not self.extra:
            return x
        # Garner's algorithm over the remaining primes (RFC 8017 §5.1.2):
        # x already solves the congruences mod p*q; fold each r_i in.
        product = self.p * self.q
        for r_i, d_i, t_i in self.extra:
            m_i = pow(m % r_i, d_i, r_i)
            h = ((m_i - x) * t_i) % r_i
            x += product * h
            product *= r_i
        return x


def generate_keypair(bits: int = 512, rng: random.Random | None = None) -> RsaPrivateKey:
    """Generate an RSA keypair with a *bits*-bit modulus.

    *rng* makes generation reproducible; the default uses a fresh
    system-seeded generator.  512 bits is the simulation default — small
    enough that a full model RPKI signs in milliseconds, large enough that
    padding and DigestInfo fit comfortably.  A width under
    :data:`MIN_MODULUS_BITS` could sign nothing and raises
    :class:`KeySizeError`.
    """
    if bits < MIN_MODULUS_BITS:
        raise KeySizeError(
            f"modulus must be at least {MIN_MODULUS_BITS} bits, got {bits}"
        )
    rng = rng or random.Random()
    # Multi-prime RSA (RFC 8017): three roughly-third-width primes.  The
    # public key and signature bytes are indistinguishable from two-prime
    # RSA at the same modulus size; what changes is private-key CRT cost
    # — three third-width modular exponentiations are markedly cheaper
    # than two half-width ones, and keygen tests smaller primes.
    sizes = (bits - 2 * (bits // 3), bits // 3, bits // 3)
    while True:
        primes = [generate_prime(size, rng) for size in sizes]
        if len(set(primes)) != len(primes):
            continue
        n = math.prod(primes)
        if n.bit_length() != bits:
            continue
        phi = math.prod(prime - 1 for prime in primes)
        try:
            d = pow(PUBLIC_EXPONENT, -1, phi)
        except ValueError:
            continue  # e not invertible mod phi; rare, retry
        p, q, *rest = primes
        product = p * q
        extra = []
        for r_i in rest:
            extra.append((r_i, d % (r_i - 1), pow(product, -1, r_i)))
            product *= r_i
        _KEYGEN_TOTAL.inc()
        return RsaPrivateKey(
            public=RsaPublicKey(modulus=n), d=d,
            p=p, q=q, d_p=d % (p - 1), d_q=d % (q - 1),
            q_inv=pow(q, -1, p),
            extra=tuple(extra),
        )


def _pad(message: bytes, target_length: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of SHA-256(message)."""
    return _padding_prefix(target_length) + _sha256(message).digest()


# Bounded: an authority picks its key sizes, so it picks the lengths.
@functools.lru_cache(maxsize=16)
def _padding_prefix(target_length: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding, up to the digest, for a modulus of
    *target_length* bytes."""
    # Framing (3 bytes), DigestInfo and the 32-byte digest are fixed.
    padding_length = target_length - 3 - len(_SHA256_DIGEST_INFO) - 32
    if target_length < MIN_MODULUS_BYTES:
        raise SignatureError(
            f"modulus too small for SHA-256 DigestInfo ({target_length} bytes)"
        )
    return b"\x00\x01" + b"\xff" * padding_length + b"\x00" + _SHA256_DIGEST_INFO
