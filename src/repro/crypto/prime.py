"""Probabilistic primality testing and prime generation.

Supports the from-scratch RSA implementation in :mod:`repro.crypto.rsa`.
Generation is driven by an injected :class:`random.Random` so key material
— and therefore every signed object in a simulated RPKI — is reproducible
from a seed.
"""

from __future__ import annotations

import math
import random

__all__ = ["is_probable_prime", "generate_prime", "SMALL_PRIMES"]

# Primes below 100, used as a cheap trial-division prefilter (and the
# only primes a candidate may *equal* and still pass the gcd prefilter).
SMALL_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
    47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

_MILLER_RABIN_ROUNDS = 6


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p:limit:p] = bytearray(len(range(p * p, limit, p)))
    return [i for i in range(limit) if flags[i]]

# Product of all primes below 2048: one gcd against it replaces ~300
# trial divisions.  Random keygen candidates are overwhelmingly rejected
# here, before any modular exponentiation happens.
_PRIMORIAL_LIMIT = 2048
_SIEVED_PRIMES = _sieve(_PRIMORIAL_LIMIT)
_PRIMORIAL = math.prod(_SIEVED_PRIMES)
_SMALL_PRIME_SET = frozenset(_SIEVED_PRIMES)


def is_probable_prime(n: int) -> bool:
    """Strong probable-prime test: gcd prefilter, base 2, random witnesses.

    Candidates sharing a factor with the primes-below-2048 primorial are
    rejected with a single ``gcd``; survivors face a base-2 strong
    Miller–Rabin round (which rejects virtually every remaining
    composite without spending a witness draw) and then
    ``_MILLER_RABIN_ROUNDS`` rounds with witnesses drawn from a PRNG
    seeded with the candidate itself, so the verdict for a given ``n``
    is deterministic and independent of call order.
    Combined error probability is far below ``4**-_MILLER_RABIN_ROUNDS``
    (base-2 strong pseudoprimes are already vanishingly rare).
    """
    if n < 2:
        return False
    if n < _PRIMORIAL_LIMIT:
        return n in _SMALL_PRIME_SET
    if math.gcd(n, _PRIMORIAL) != 1:
        return False

    # Write n - 1 as d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def strong_round(a: int) -> bool:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            return True
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                return True
        return False

    if not strong_round(2):
        return False
    rng = random.Random(n)  # deterministic witnesses per candidate
    for _ in range(_MILLER_RABIN_ROUNDS):
        if not strong_round(rng.randrange(3, n - 1)):
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime of exactly *bits* bits.

    The top two bits are forced to 1 so that the product of two such primes
    has exactly ``2 * bits`` bits — the standard RSA trick.  The low bit is
    forced to 1 (odd).

    *rng* drives candidate generation only; primality witnesses come from
    each candidate's own deterministic stream (see
    :func:`is_probable_prime`), so the number of rounds the test spends
    on one candidate never shifts the bits of the next.
    """
    if bits < 8:
        raise ValueError(f"prime size too small: {bits} bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(candidate):
            return candidate
