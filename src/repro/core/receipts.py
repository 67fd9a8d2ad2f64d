"""Execution receipts and the receipt/raw-tx authorization chain code.

A receipt records the outcome of one transaction.  For confidential
transactions it is sealed under the one-time ``k_tx`` (T-Protocol
formula 2) — "only the transaction owner has the permission to check the
execution receipt".

Two delegation paths exist (paper §3.2.3):

- **offline** — the owner simply hands ``k_tx`` to the delegate;
- **on-chain** — CONFIDE's pre-defined chain code takes a pending access
  request and forwards it to the target contract, "where user can define
  accessing rules for such requests".  :class:`AuthorizationChainCode`
  implements that: the target contract exposes an ``acl_check`` method;
  if it outputs 1 for (requester, tx-owner), the engine re-wraps
  ``k_tx`` under the requester's public key.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import ecies
from repro.crypto.ecc import Point
from repro.crypto.keys import KeyPair
from repro.errors import ChainError, ProtocolError
from repro.storage import rlp

ACL_METHOD = "acl_check"
_WRAP_AAD = b"confide/receipt-authorization"


# Structured failure classification.  ``error`` stays a human-readable
# message; ``kind`` is what machines branch on — a contract revert whose
# message happens to start with "analysis:" must never be mistaken for a
# static-verifier rejection.
KIND_OK = ""
KIND_REVERT = "revert"
KIND_ANALYSIS = "analysis"
KIND_BAD_SIGNATURE = "bad-signature"
KIND_UNDECRYPTABLE = "undecryptable"

RECEIPT_KINDS = (
    KIND_OK, KIND_REVERT, KIND_ANALYSIS, KIND_BAD_SIGNATURE,
    KIND_UNDECRYPTABLE,
)

# Which static-analysis configuration admitted (or rejected) a deploy:
# Pass 1 only runs when the deploy carries CWScript source; Passes 2+3
# run on the artifact either way.  Empty for non-deploy transactions.
ANALYSIS_SOURCE_BYTECODE = "source+bytecode"
ANALYSIS_BYTECODE_ONLY = "bytecode-only"


@dataclass(frozen=True)
class Receipt:
    """Result of executing one transaction."""

    tx_hash: bytes
    success: bool
    output: bytes = b""
    error: str = ""
    logs: tuple[bytes, ...] = ()
    instructions: int = 0
    gas_used: int = 0
    storage_reads: int = 0
    storage_writes: int = 0
    sender: bytes = b""
    contract: bytes = b""
    kind: str = KIND_OK  # one of RECEIPT_KINDS; "" for success
    # For deploy/upgrade transactions: which analysis mode admitted or
    # rejected the artifact ("source+bytecode" / "bytecode-only").
    analysis_mode: str = ""

    def encode(self) -> bytes:
        return rlp.encode(
            [
                self.tx_hash,
                b"\x01" if self.success else b"",
                self.output,
                self.error.encode(),
                list(self.logs),
                rlp.encode_int(self.instructions),
                rlp.encode_int(self.gas_used),
                rlp.encode_int(self.storage_reads),
                rlp.encode_int(self.storage_writes),
                self.sender,
                self.contract,
                self.kind.encode(),
                self.analysis_mode.encode(),
            ]
        )

    @classmethod
    def decode(cls, data: bytes) -> "Receipt":
        items = rlp.decode(data)
        if not isinstance(items, list) or len(items) != 13:
            raise ChainError("malformed receipt")
        return cls(
            tx_hash=items[0],
            success=bool(items[1]),
            output=items[2],
            error=items[3].decode(),
            logs=tuple(items[4]),
            instructions=rlp.decode_int(items[5]),
            gas_used=rlp.decode_int(items[6]),
            storage_reads=rlp.decode_int(items[7]),
            storage_writes=rlp.decode_int(items[8]),
            sender=items[9],
            contract=items[10],
            kind=items[11].decode(),
            analysis_mode=items[12].decode(),
        )


@dataclass
class AccessRequest:
    """A pending request for a transaction's receipt or raw content."""

    tx_hash: bytes
    requester: bytes  # address
    requester_pub: bytes  # compressed public key
    target_contract: bytes
    kind: str = "receipt"  # or "raw"


class AuthorizationChainCode:
    """CONFIDE's pre-defined authorization chain code.

    Holds pending requests and, given an engine-provided callback that
    runs the target contract's ``acl_check`` method, releases the
    transaction key wrapped to the requester.
    """

    def __init__(self, call_contract, tx_key_lookup):
        """
        call_contract(address, method, argument: bytes) -> bytes
            runs a contract method inside the Confidential-Engine.
        tx_key_lookup(tx_hash) -> bytes | None
            fetches the cached k_tx for a transaction (enclave-internal).
        """
        self._call_contract = call_contract
        self._tx_key_lookup = tx_key_lookup
        self._pending: list[AccessRequest] = []

    def submit(self, request: AccessRequest) -> None:
        self._pending.append(request)

    def process(self) -> list[tuple[AccessRequest, bytes | None]]:
        """Evaluate all pending requests; returns (request, wrapped-key)
        pairs where the wrapped key is None when access was denied."""
        results: list[tuple[AccessRequest, bytes | None]] = []
        for request in self._pending:
            argument = rlp.encode(
                [request.tx_hash, request.requester, request.kind.encode()]
            )
            verdict = self._call_contract(
                request.target_contract, ACL_METHOD, argument
            )
            allowed = bool(verdict) and verdict[-1:] == b"\x01"
            wrapped: bytes | None = None
            if allowed:
                k_tx = self._tx_key_lookup(request.tx_hash)
                if k_tx is None:
                    raise ProtocolError(
                        "authorization granted but k_tx is no longer cached"
                    )
                requester_point = _decode_pub(request.requester_pub)
                wrapped = ecies.encrypt(requester_point, k_tx, _WRAP_AAD)
            results.append((request, wrapped))
        self._pending.clear()
        return results

    @staticmethod
    def unwrap(requester: KeyPair, wrapped: bytes) -> bytes:
        """Requester side: recover the released k_tx."""
        return ecies.decrypt(requester, wrapped, _WRAP_AAD)


def _decode_pub(data: bytes) -> Point:
    from repro.crypto.ecc import decode_point

    return decode_point(data)
