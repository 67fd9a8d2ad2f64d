"""Machine-checked invariants for the fault simulator.

Three classes, checked after every step:

- **safety** — no two honest nodes ever commit conflicting blocks at
  the same height; every commit a node makes must match the ordering
  service's canonical decision for that height, bit for bit (block hash
  *and* state root); the state root a node maintains incrementally must
  equal the root recomputed from its store.
- **durability** — a node restarted from persisted storage must replay
  to exactly the chain it had committed (checked inside
  ``Node.restore_chain_from_storage`` and re-checked against the
  canonical registry here).
- **confidentiality** — canary plaintext planted in confidential
  transaction inputs (and in enclave page content) must never appear in
  persisted storage, on the wire, or in evicted EPC page copies.  This
  is the byte-scan analogue of the telemetry guard in
  :mod:`repro.obs.guard`: instead of an allowlist of fields, an
  explicit denylist of secrets that must stay sealed.

Violations raise :class:`repro.errors.InvariantViolation`; the harness
attaches the seed and fault schedule to its failure report.
"""

from __future__ import annotations

import os

from repro.errors import ChainError, InvariantViolation
from repro.storage.kv import KVStore
from repro.tee.epc import EpcAllocator


class SafetyChecker:
    """Registry of canonical commits, compared against every node commit."""

    def __init__(self) -> None:
        self.canonical: dict[int, tuple[bytes, bytes]] = {}  # height -> (hash, root)

    def register_canonical(self, height: int, block_hash: bytes,
                           state_root: bytes) -> None:
        """Record the ordering service's decision for a height."""
        existing = self.canonical.get(height)
        if existing is not None and existing != (block_hash, state_root):
            raise InvariantViolation(
                f"safety: two canonical blocks at height {height}: "
                f"{existing[0].hex()[:16]} vs {block_hash.hex()[:16]}"
            )
        self.canonical[height] = (block_hash, state_root)

    def observe_commit(self, node_id: int, height: int, block_hash: bytes,
                       state_root: bytes) -> None:
        """A node committed a block; it must match the canonical one."""
        expected = self.canonical.get(height)
        if expected is None:
            raise InvariantViolation(
                f"safety: node {node_id} committed height {height} "
                "before the ordering service decided it"
            )
        if expected != (block_hash, state_root):
            raise InvariantViolation(
                f"safety: node {node_id} diverges at height {height}: "
                f"committed {block_hash.hex()[:16]}/{state_root.hex()[:16]}, "
                f"canonical {expected[0].hex()[:16]}/{expected[1].hex()[:16]}"
            )

    def check_restored(self, node_id: int, height: int,
                       block_hash: bytes, state_root: bytes) -> None:
        """Durability cross-check: a restored head must be a block the
        cluster actually committed at that height."""
        if height == 0:
            return
        expected = self.canonical.get(height)
        if expected is None or expected != (block_hash, state_root):
            raise InvariantViolation(
                f"durability: node {node_id} restored to height {height} "
                f"head {block_hash.hex()[:16]} which the cluster never "
                "committed"
            )


class ConfidentialityChecker:
    """Byte-scans untrusted surfaces for planted canary plaintext."""

    def __init__(self, needles: list[bytes]):
        self.needles = [bytes(n) for n in needles if n]
        self.wire_scans = 0
        self.kv_scans = 0
        self.epc_scans = 0
        self.file_scans = 0

    def _hit(self, blob: bytes) -> bytes | None:
        for needle in self.needles:
            if needle in blob:
                return needle
        return None

    def scan_wire(self, payload: bytes, context: str) -> None:
        self.wire_scans += 1
        needle = self._hit(payload)
        if needle is not None:
            raise InvariantViolation(
                f"confidentiality: canary {needle[:24]!r} on the wire ({context})"
            )

    def scan_kv(self, node_id: int, kv: KVStore) -> None:
        """Scan everything a node persisted — state, code, blocks,
        receipts, sealed key backups.  All of it is host-visible."""
        self.kv_scans += 1
        for key, value in kv.items():
            needle = self._hit(value) or self._hit(key)
            if needle is not None:
                raise InvariantViolation(
                    f"confidentiality: canary {needle[:24]!r} persisted in "
                    f"node {node_id} storage under key {key[:32]!r}"
                )

    def scan_files(self, node_id: int, directory: str) -> None:
        """Scan a node's raw on-disk storage files — WAL segments,
        SSTables, manifests, snapshots — exactly as an attacker with the
        disk would read them.  Works whether the node is up or crashed.
        """
        if not os.path.isdir(directory):
            return
        self.file_scans += 1
        for name in sorted(os.listdir(directory)):
            path = os.path.join(directory, name)
            if not os.path.isfile(path):
                continue
            try:
                with open(path, "rb") as f:
                    blob = f.read()
            except FileNotFoundError:
                # Another process may work in this directory: since the
                # listing it renamed a `.tmp` into place (or dropped a
                # merged segment).  Nothing is hidden — a renamed file
                # is read under its new name by this scan or the next,
                # a deleted one is off the disk.
                continue
            needle = self._hit(blob)
            if needle is not None:
                raise InvariantViolation(
                    f"confidentiality: canary {needle[:24]!r} in node "
                    f"{node_id} storage file {name}"
                )

    def scan_epc(self, node_id: int, epc: EpcAllocator) -> None:
        """Scan evicted page copies — enclave memory in untrusted RAM."""
        self.epc_scans += 1
        for handle, blob in sorted(epc.evicted_blobs().items()):
            needle = self._hit(blob)
            if needle is not None:
                raise InvariantViolation(
                    f"confidentiality: canary {needle[:24]!r} in evicted EPC "
                    f"page (node {node_id}, handle {handle})"
                )

    def scan_blobs(self, blobs: list[bytes], context: str) -> None:
        for blob in blobs:
            needle = self._hit(blob)
            if needle is not None:
                raise InvariantViolation(
                    f"confidentiality: canary {needle[:24]!r} in {context}"
                )


def check_state_commitment(node) -> None:
    """The root a node maintains block by block must be the root its
    store recomputes to — under every fault schedule, not only clean
    runs."""
    try:
        node.check_commitment()
    except ChainError as exc:
        raise InvariantViolation(
            f"safety: node {node.node_id}: {exc}"
        ) from None


def check_epc_sanity(node_id: int, epc: EpcAllocator) -> None:
    """EPC accounting can never claim more frames than exist."""
    if epc.resident_pages > epc.budget_pages:
        raise InvariantViolation(
            f"epc: node {node_id} accounts {epc.resident_pages} resident "
            f"pages over a budget of {epc.budget_pages}"
        )
    if epc.pool_pages_free > epc.resident_pages:
        raise InvariantViolation(
            f"epc: node {node_id} freelist {epc.pool_pages_free} exceeds "
            f"resident count {epc.resident_pages}"
        )
