"""Storage substrate: pluggable KV stores, RLP, and merkle commitments."""

from repro.storage.kv import (
    AppendLogKV,
    BlockWrites,
    KVStore,
    MemoryKV,
    NamespacedKV,
)
from repro.storage.lsm import LsmKV, StorageSealer
from repro.storage.merkle import (
    EMPTY_ROOT,
    MerkleProof,
    MerkleTree,
    ProofStep,
    StateCommitment,
    state_root,
    verify_proof,
)
from repro.storage.rlp import decode, decode_int, encode, encode_int

__all__ = [
    "AppendLogKV",
    "BlockWrites",
    "EMPTY_ROOT",
    "KVStore",
    "LsmKV",
    "MemoryKV",
    "StorageSealer",
    "MerkleProof",
    "MerkleTree",
    "NamespacedKV",
    "ProofStep",
    "StateCommitment",
    "decode",
    "decode_int",
    "encode",
    "encode_int",
    "state_root",
    "verify_proof",
]
