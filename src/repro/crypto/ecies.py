"""ECIES digital envelope over secp256k1 + AES-128-GCM.

This is the asymmetric half of the T-Protocol envelope:
``Enc(pk_tx, k_tx)`` in the paper's formula (1).  The sender generates an
ephemeral keypair, derives an AES key from the ECDH shared secret with
HKDF, and seals the payload; the wire format is::

    ephemeral-pubkey (33 bytes, compressed) || nonce (12) || ct || tag (16)

Decryption requires the recipient's private scalar (sk_tx), which in
CONFIDE lives only inside the Confidential-Engine's enclave.

A caller that seals to one recipient many times may pass that
recipient's :class:`~repro.crypto.ecc.Comb` instead of the point, so the
sender's ECDH ``e * pk`` is additions only; only
:func:`repro.core.t_protocol.seal_transaction` does, for pk_tx.  Every
other seal, and :func:`decrypt` (the engine's ``sk_tx * E`` on a fresh
ephemeral key), takes the GLV path and builds no table.
"""

from __future__ import annotations

from repro.crypto import ecc
from repro.crypto.entropy import token_bytes
from repro.crypto.gcm import NONCE_SIZE, AesGcm
from repro.crypto.hkdf import hkdf
from repro.crypto.keys import KeyPair
from repro.errors import AuthenticationError, CryptoError

_INFO = b"repro-ecies-v1"
_PUB_SIZE = 33


def encrypt(
    recipient: ecc.Point | ecc.Comb, plaintext: bytes, aad: bytes = b""
) -> bytes:
    """Seal plaintext to the recipient public key, or to its comb."""
    ephemeral = KeyPair.generate()
    if isinstance(recipient, ecc.Comb):
        point = recipient.mult(ephemeral.private)
        assert point.x is not None  # 0 < e < N and the comb's base is finite
        shared = point.x.to_bytes(32, "big")
    else:
        shared = ephemeral.ecdh(recipient)
    key = hkdf(shared, info=_INFO, length=16)
    nonce = token_bytes(NONCE_SIZE)
    sealed = AesGcm(key).seal(nonce, plaintext, aad)
    return ephemeral.public_bytes() + nonce + sealed


def decrypt(recipient: KeyPair, envelope: bytes, aad: bytes = b"") -> bytes:
    """Open an envelope with the recipient's private key."""
    if len(envelope) < _PUB_SIZE + NONCE_SIZE + 16:
        raise AuthenticationError("ECIES envelope too short")
    try:
        ephemeral_pub = ecc.decode_point(envelope[:_PUB_SIZE])
    except CryptoError as exc:
        raise AuthenticationError(f"bad ephemeral key: {exc}") from exc
    nonce = envelope[_PUB_SIZE : _PUB_SIZE + NONCE_SIZE]
    sealed = envelope[_PUB_SIZE + NONCE_SIZE :]
    shared = recipient.ecdh(ephemeral_pub)
    key = hkdf(shared, info=_INFO, length=16)
    return AesGcm(key).open(nonce, sealed, aad)
