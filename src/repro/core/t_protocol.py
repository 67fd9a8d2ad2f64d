"""T-Protocol: secure data transmission between clients and the
Confidential-Engine (paper §3.2.3).

Confidential transaction (formula 1)::

    Tx_conf = Enc(pk_tx, k_tx) || Enc(k_tx, Tx_raw)

- ``pk_tx``  the engine's public key, whose private half lives only in
  the enclave; its fingerprint is bound into the attestation quote.
- ``k_tx``   a one-time symmetric key per transaction, derived from the
  user's root key and the raw transaction hash — so the protocol is
  non-interactive (no key-agreement round trips) and every envelope uses
  a fresh key (chosen-plaintext/ciphertext countermeasure).

Receipts (formula 2) are sealed under the same ``k_tx``; the transaction
owner — or anyone the owner hands ``k_tx`` to, offline or through the
authorization chain code — can open them.
"""

from __future__ import annotations

from repro.chain.transaction import (
    TX_CONFIDENTIAL,
    RawTransaction,
    Transaction,
)
from repro.crypto import ecies
from repro.crypto.ecc import Comb, Point
from repro.crypto.entropy import token_bytes
from repro.crypto.gcm import NONCE_SIZE, deterministic_nonce, for_key
from repro.crypto.keys import KeyPair, SymmetricKey
from repro.errors import ProtocolError
from repro.storage import rlp

_ENVELOPE_AAD = b"confide/t-protocol/tx"
_RECEIPT_AAD = b"confide/t-protocol/receipt"

# The last pk_tx sealed to and, once it was sealed to twice in a row, its
# comb (4-bit, ~166 KB, ~12 ms to build).  Every client seals to the one
# pk_tx, so from the second seal on ``e * pk_tx`` is additions only; a
# process alternating between engines keeps the GLV path instead of
# rebuilding.  No lock: a race costs a redundant build or a GLV seal,
# never a wrong envelope.
_pk_tx_slot: tuple[tuple[int | None, int | None], Comb | None] | None = None


def _pk_tx_comb(pk_tx: Point) -> Comb | None:
    """pk_tx's comb from its second seal in a row on; None before that."""
    global _pk_tx_slot
    key = (pk_tx.x, pk_tx.y)
    slot = _pk_tx_slot
    if slot is None or slot[0] != key:
        _pk_tx_slot = (key, None)
        return None
    if slot[1] is None:
        slot = _pk_tx_slot = (key, Comb(pk_tx))
    return slot[1]


def derive_tx_key(user_root_key: bytes, raw_tx_hash: bytes) -> bytes:
    """One-time k_tx from the user root key and the raw tx hash."""
    return SymmetricKey.derive(user_root_key, b"k_tx:" + raw_tx_hash).material


def seal_transaction(
    pk_tx: Point, raw: RawTransaction, user_root_key: bytes
) -> Transaction:
    """Client side: wrap a signed raw transaction in the crypto envelope."""
    k_tx = derive_tx_key(user_root_key, raw.tx_hash)
    key_blob = ecies.encrypt(_pk_tx_comb(pk_tx) or pk_tx, k_tx, _ENVELOPE_AAD)
    nonce = token_bytes(NONCE_SIZE)
    body = nonce + for_key(k_tx).seal(nonce, raw.encode(), _ENVELOPE_AAD)
    envelope = rlp.encode([key_blob, body])
    return Transaction(TX_CONFIDENTIAL, envelope)


def open_envelope_key(sk_tx: KeyPair, envelope: bytes) -> tuple[bytes, bytes]:
    """Engine side, step 1: recover k_tx with the private key (expensive).

    Returns (k_tx, symmetric body) so callers can cache k_tx and redo
    only the cheap half later (§5.2 pre-verification).
    """
    items = rlp.decode(envelope)
    if not isinstance(items, list) or len(items) != 2:
        raise ProtocolError("malformed confidential envelope")
    key_blob, body = items
    k_tx = ecies.decrypt(sk_tx, key_blob, _ENVELOPE_AAD)
    if len(k_tx) != 16:
        raise ProtocolError("recovered k_tx has wrong size")
    return k_tx, body


def open_body(k_tx: bytes, body: bytes) -> RawTransaction:
    """Engine side, step 2: symmetric decryption of the raw transaction."""
    if len(body) < NONCE_SIZE:
        raise ProtocolError("envelope body too short")
    nonce, sealed = body[:NONCE_SIZE], body[NONCE_SIZE:]
    raw_bytes = for_key(k_tx).open(nonce, sealed, _ENVELOPE_AAD)
    return RawTransaction.decode(raw_bytes)


def envelope_body(envelope: bytes) -> bytes:
    """Extract the symmetric body without touching the key blob."""
    items = rlp.decode(envelope)
    if not isinstance(items, list) or len(items) != 2:
        raise ProtocolError("malformed confidential envelope")
    return items[1]


def open_transaction(sk_tx: KeyPair, envelope: bytes) -> tuple[bytes, RawTransaction]:
    """Full open: private-key decryption + symmetric decryption."""
    k_tx, body = open_envelope_key(sk_tx, envelope)
    return k_tx, open_body(k_tx, body)


def seal_receipt(k_tx: bytes, receipt_bytes: bytes) -> bytes:
    """Encrypt an execution receipt under the transaction's one-time key.

    The nonce is synthetic: every replica seals the same receipt to the
    same bytes, so sealed receipts can be committed under the block's
    receipts root.
    """
    nonce = deterministic_nonce(k_tx, receipt_bytes, _RECEIPT_AAD)
    return nonce + for_key(k_tx).seal(nonce, receipt_bytes, _RECEIPT_AAD)


def open_receipt(k_tx: bytes, sealed: bytes) -> bytes:
    """Decrypt a sealed receipt (owner, or an authorized delegate)."""
    if len(sealed) < NONCE_SIZE:
        raise ProtocolError("sealed receipt too short")
    nonce, body = sealed[:NONCE_SIZE], sealed[NONCE_SIZE:]
    return for_key(k_tx).open(nonce, body, _RECEIPT_AAD)
