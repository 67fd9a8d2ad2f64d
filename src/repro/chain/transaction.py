"""Transactions: public (TYPE=0) and confidential (TYPE=1).

A raw transaction carries account information (sender, target contract)
and transaction information (method + argument blob), is signed by the
sender, and is RLP-encoded on the wire (paper §2.1).

A *confidential* transaction is the T-Protocol envelope around the raw
encoding: the network, the orderer, and the storage only ever see
``TYPE=1 | envelope-hash | ciphertext``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from repro.crypto import ecdsa
from repro.crypto.ecc import decode_point
from repro.crypto.hashes import sha256
from repro.crypto.keys import KeyPair
from repro.errors import ChainError
from repro.storage import rlp

TX_PUBLIC = 0
TX_CONFIDENTIAL = 1

ADDRESS_SIZE = 20

DEPLOY_METHOD = "__deploy__"
UPGRADE_METHOD = "__upgrade__"


def address_of(public_key_bytes: bytes) -> bytes:
    """Account address: trailing 20 bytes of sha256(compressed pubkey)."""
    return sha256(public_key_bytes)[-ADDRESS_SIZE:]


def contract_address(sender: bytes, nonce: int) -> bytes:
    """Deterministic address for a deployed contract."""
    return sha256(b"contract:" + sender + rlp.encode_int(nonce))[-ADDRESS_SIZE:]


@dataclass(frozen=True)
class RawTransaction:
    """The plaintext transaction (inside the envelope when confidential)."""

    sender: bytes
    contract: bytes
    method: str
    args: bytes
    nonce: int
    pubkey: bytes = b""
    signature: bytes = b""

    def signing_payload(self) -> bytes:
        return rlp.encode(
            [
                self.sender,
                self.contract,
                self.method.encode(),
                self.args,
                rlp.encode_int(self.nonce),
                self.pubkey,
            ]
        )

    def encode(self) -> bytes:
        return rlp.encode(
            [
                self.sender,
                self.contract,
                self.method.encode(),
                self.args,
                rlp.encode_int(self.nonce),
                self.pubkey,
                self.signature,
            ]
        )

    @classmethod
    def decode(cls, data: bytes) -> "RawTransaction":
        items = rlp.decode(data)
        if not isinstance(items, list) or len(items) != 7:
            raise ChainError("malformed raw transaction")
        return cls(
            sender=items[0],
            contract=items[1],
            method=items[2].decode(),
            args=items[3],
            nonce=rlp.decode_int(items[4]),
            pubkey=items[5],
            signature=items[6],
        )

    @property
    def tx_hash(self) -> bytes:
        return sha256(self.encode())

    def signed_by(self, keypair: KeyPair) -> "RawTransaction":
        """Return a copy signed with `keypair` (sets pubkey + signature)."""
        pubkey = keypair.public_bytes()
        unsigned = replace(self, pubkey=pubkey, signature=b"")
        signature = ecdsa.sign(keypair.private, unsigned.signing_payload())
        return replace(unsigned, signature=signature.encode())

    def verify_signature(self) -> bool:
        """Check the ECDSA signature and sender/pubkey binding."""
        if len(self.signature) != 64 or not self.pubkey:
            return False
        if address_of(self.pubkey) != self.sender:
            return False
        try:
            point = decode_point(self.pubkey)
            signature = ecdsa.Signature.decode(self.signature)
        except Exception:
            return False
        return ecdsa.verify(point, self.signing_payload(), signature)

    @property
    def is_deploy(self) -> bool:
        return self.method == DEPLOY_METHOD


@dataclass(frozen=True)
class Transaction:
    """The wire-level transaction the platform handles.

    ``payload`` is the raw RLP encoding for public transactions, or the
    T-Protocol envelope for confidential ones.  ``tx_hash`` identifies
    the transaction throughout ordering/execution; for confidential
    transactions it is the hash of the ciphertext envelope, so nothing
    about the content leaks.
    """

    tx_type: int
    payload: bytes

    @cached_property
    def tx_hash(self) -> bytes:
        return sha256(bytes([self.tx_type]) + self.payload)

    @property
    def is_confidential(self) -> bool:
        return self.tx_type == TX_CONFIDENTIAL

    def encode(self) -> bytes:
        return self._encoded

    @cached_property
    def _encoded(self) -> bytes:
        return rlp.encode([bytes([self.tx_type]), self.payload])

    @cached_property
    def wire_size(self) -> int:
        """Encoded size in bytes, computed once.  Block drafting sizes
        every pool-head candidate on every pass; caching keeps that from
        re-serializing the whole pool tail."""
        return len(self.encode())

    @classmethod
    def decode(cls, data: bytes) -> "Transaction":
        items = rlp.decode(data)
        if not isinstance(items, list) or len(items) != 2 or len(items[0]) != 1:
            raise ChainError("malformed transaction wrapper")
        return cls(tx_type=items[0][0], payload=items[1])

    @classmethod
    def public(cls, raw: RawTransaction) -> "Transaction":
        return cls(TX_PUBLIC, raw.encode())

    def raw(self) -> RawTransaction:
        """Decode the raw transaction (public transactions only)."""
        if self.is_confidential:
            raise ChainError("confidential payload requires the Confidential-Engine")
        return RawTransaction.decode(self.payload)


def deploy_args(
    code: bytes, vm: str, schema_source: str = "", source: str = ""
) -> bytes:
    """Argument blob for a deploy transaction.

    ``source`` optionally carries the CWScript source so deploy
    admission can run the confidentiality taint analysis (the bytecode
    verifier runs either way).  It is appended as a fourth RLP item only
    when present, keeping the three-item wire form byte-identical.
    """
    items = [code, vm.encode(), schema_source.encode()]
    if source:
        items.append(source.encode())
    return rlp.encode(items)


def parse_deploy_args(args: bytes) -> tuple[bytes, str, str, str]:
    """(code blob, vm, schema source, contract source or '')."""
    items = rlp.decode(args)
    if not isinstance(items, list) or len(items) not in (3, 4):
        raise ChainError("malformed deploy args")
    source = items[3].decode() if len(items) == 4 else ""
    return items[0], items[1].decode(), items[2].decode(), source
