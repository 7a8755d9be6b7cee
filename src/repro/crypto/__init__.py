"""From-scratch cryptography substrate.

Provides everything the model RPKI needs to sign and verify objects:
SHA-256 hashing, Miller–Rabin prime generation, RSA signatures with
PKCS#1-v1.5-style padding, a canonical deterministic serialization
(the stand-in for DER), and reproducible key generation.

Simulation-grade only — see :mod:`repro.crypto.rsa` for the caveats.
"""

from .encoding import decode
from .errors import CryptoError, EncodingError, KeySizeError, SignatureError
from .hashing import fingerprint, sha256, sha256_hex
from .keys import KeyFactory, KeyPair, key_id_of
from .prime import generate_prime, is_probable_prime
from .rsa import (
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
)

__all__ = [
    "CryptoError",
    "EncodingError",
    "KeyFactory",
    "KeyPair",
    "KeySizeError",
    "RsaPrivateKey",
    "RsaPublicKey",
    "SignatureError",
    "decode",
    "fingerprint",
    "generate_keypair",
    "generate_prime",
    "is_probable_prime",
    "key_id_of",
    "sha256",
    "sha256_hex",
]
