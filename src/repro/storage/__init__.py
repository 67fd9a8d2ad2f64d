"""Storage substrate: pluggable KV stores, RLP, and merkle commitments."""

from repro.storage.kv import BlockWrites, KVStore, MemoryKV
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
    "BlockWrites",
    "EMPTY_ROOT",
    "KVStore",
    "LsmKV",
    "MemoryKV",
    "StorageSealer",
    "MerkleProof",
    "MerkleTree",
    "ProofStep",
    "StateCommitment",
    "decode",
    "decode_int",
    "encode",
    "encode_int",
    "state_root",
    "verify_proof",
]
