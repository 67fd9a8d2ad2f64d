"""ECDSA over secp256k1 with RFC 6979 deterministic nonces.

Client transactions are signed with ECDSA; the Confidential-Engine's
pre-processor verifies the signature of the recovered raw transaction
(the paper's expensive "public key signature verification" in §5.2).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.crypto import ecc
from repro.crypto.hashes import sha256
from repro.errors import AuthenticationError, CryptoError


@dataclass(frozen=True)
class Signature:
    """An ECDSA signature (r, s) with low-s normalization."""

    r: int
    s: int

    def encode(self) -> bytes:
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    @classmethod
    def decode(cls, data: bytes) -> "Signature":
        if len(data) != 64:
            raise CryptoError("signature must be 64 bytes")
        return cls(int.from_bytes(data[:32], "big"), int.from_bytes(data[32:], "big"))


def _rfc6979_nonce(private_key: int, digest: bytes) -> int:
    """Deterministic per-message nonce k (RFC 6979, HMAC-SHA256)."""
    order_bytes = ecc.N.to_bytes(32, "big")
    x = private_key.to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac.new(k, v + b"\x00" + x + digest, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + x + digest, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < ecc.N:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()
    raise AssertionError("unreachable")


def sign(private_key: int, message: bytes) -> Signature:
    """Sign SHA-256(message) with the scalar private key."""
    if not 1 <= private_key < ecc.N:
        raise CryptoError("private key out of range")
    digest = sha256(message)
    z = int.from_bytes(digest, "big") % ecc.N
    k = _rfc6979_nonce(private_key, digest)
    while True:
        point = ecc.scalar_mult(k)
        assert point.x is not None
        r = point.x % ecc.N
        if r == 0:
            k = (k + 1) % ecc.N
            continue
        s = (ecc.mod_inverse(k) * (z + r * private_key)) % ecc.N
        if s == 0:
            k = (k + 1) % ecc.N
            continue
        if s > ecc.N // 2:
            s = ecc.N - s
        return Signature(r, s)


def verify(public_key: ecc.Point, message: bytes, signature: Signature) -> bool:
    """Verify; returns True/False rather than raising for invalid sigs."""
    r, s = signature.r, signature.s
    if not (1 <= r < ecc.N and 1 <= s < ecc.N):
        return False
    if public_key.is_infinity or not ecc.is_on_curve(public_key):
        return False
    z = int.from_bytes(sha256(message), "big") % ecc.N
    w = ecc.mod_inverse(s)
    u1 = (z * w) % ecc.N
    u2 = (r * w) % ecc.N
    point = ecc.double_scalar_mult(u1, u2, public_key)
    if point.is_infinity:
        return False
    assert point.x is not None
    return point.x % ecc.N == r


def require_valid(public_key: ecc.Point, message: bytes, signature: Signature) -> None:
    """Verify and raise AuthenticationError on failure."""
    if not verify(public_key, message, signature):
        raise AuthenticationError("ECDSA signature verification failed")
