"""A full consortium-blockchain node, and consortium assembly helpers.

A node wires together everything below it: KV storage, the two execution
engines (the CONFIDE Confidential-Engine plugs in beside the platform's
Public-Engine, exactly the plugin architecture of Figure 2), transaction
pools, a block executor, and the chain itself.

:func:`build_consortium` stands up an n-node network: every platform is
registered with the attestation service and the protocol secrets are
agreed through the chosen K-Protocol mode (decentralized MAP by default,
centralized KMS optionally).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.chain.block import (
    GENESIS_HASH,
    Block,
    BlockHeader,
    receipts_merkle_root,
    tx_merkle_root,
)
from repro.chain.executor import BlockExecutionReport, BlockExecutor
from repro.chain.mempool import TxPool
from repro.chain.transaction import Transaction
from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.engine import ConfidentialEngine, PublicEngine
from repro.core.k_protocol import (
    CentralizedKMS,
    bootstrap_founder,
    mutual_attested_provision,
)
from repro.crypto.ecc import Point, decode_point
from repro.errors import ChainError
from repro.obs.trace import get_tracer
from repro.storage import rlp
from repro.storage.kv import KVStore, MemoryKV
from repro.storage.lsm import LsmKV, PlatformFreshness, StorageSealer
from repro.storage.merkle import StateCommitment
from repro.tee.attestation import AttestationService

DEFAULT_BLOCK_BYTES = 4096  # the paper's 4 KB block size (§6.1)

# Key prefixes that belong to replicated consensus state.  Everything
# else in the KV store is node-local (platform-sealed key backups,
# header cache, persisted block bodies, ...) and must not enter the
# state commitment.
CONSENSUS_PREFIXES = (b"s:", b"c:", b"n:")

_BLOCK_DATA_PREFIX = b"blkdata:"
_RECEIPTS_DATA_PREFIX = b"rcptdata:"
_SNAPSHOT_KEY = b"snap:latest"  # node-local; outside CONSENSUS_PREFIXES


def _height_key(prefix: bytes, height: int) -> bytes:
    return prefix + height.to_bytes(8, "big")


def make_store(config: EngineConfig, directory: str, platform=None) -> KVStore:
    """Build the KV store ``config.storage_backend`` names.

    The LSM store lives under ``directory`` and needs the node's
    platform: the seal key and the freshness counter are both anchored
    there (docs/storage.md).
    """
    backend = config.storage_backend
    if backend == "memory":
        return MemoryKV()
    if backend != "lsm":
        raise ChainError(f"unknown storage backend '{backend}'")
    if platform is None:
        raise ChainError("a sealed LSM store needs the node's platform")
    os.makedirs(directory, exist_ok=True)
    return LsmKV(
        directory, sealer=StorageSealer.from_platform(platform),
        freshness=PlatformFreshness(platform), sync=config.storage_sync,
        memtable_bytes=config.storage_memtable_bytes,
    )


def consensus_state(kv: KVStore) -> dict[bytes, bytes]:
    """The replicated portion of a node's KV store."""
    return {
        key: value
        for key, value in kv.items()
        if key.startswith(CONSENSUS_PREFIXES)
    }


def scan_state_commitment(kv: KVStore) -> StateCommitment:
    """Build the state commitment from storage: one full-store scan."""
    return StateCommitment(consensus_state(kv).items())


@dataclass
class AppliedBlock:
    block: Block
    report: BlockExecutionReport
    exec_seconds: float
    write_seconds: float


@dataclass(frozen=True)
class Snapshot:
    """A persisted checkpoint of the replicated state (state-sync source)."""

    height: int
    head_hash: bytes
    state_root: bytes
    items: dict[bytes, bytes]


class Node:
    """One consortium node."""

    def __init__(
        self,
        node_id: int,
        zone: int = 0,
        kv: KVStore | None = None,
        config: EngineConfig = DEFAULT_CONFIG,
        platform=None,
        data_dir: str | None = None,
        mempool_capacity: int = 100_000,
    ):
        self.node_id = node_id
        self.zone = zone
        if kv is None and data_dir is not None:
            if config.storage_backend == "lsm" and platform is None:
                # The store seals to the platform, so the platform must
                # exist before the store — and the engine must then run
                # on that same platform.
                from repro.tee.enclave import Platform

                platform = Platform()
            kv = make_store(config, data_dir, platform)
        self.kv = kv if kv is not None else MemoryKV()
        self.data_dir = data_dir
        self.config = config
        # A restarted node passes the original Platform back in: SGX
        # sealing keys are machine-bound, so key recovery only works on
        # the machine the keys were sealed to.
        self.confidential = ConfidentialEngine(self.kv, config, platform=platform)
        self.public = PublicEngine(self.kv, config)
        self.executor = BlockExecutor(self.confidential, self.public)
        # The serving gateway sizes this down so ``TxPool.add -> False``
        # becomes client-visible backpressure before memory does.
        self.unverified = TxPool(capacity=mempool_capacity)
        self.verified = TxPool(capacity=mempool_capacity)
        self._closed = False
        self.chain: list[Block] = []
        self.receipts: dict[bytes, bytes] = {}  # tx hash -> receipt blob
        self._receipt_blobs_by_height: dict[int, list[bytes]] = {}
        # The maintained commitment to the replicated state (derived
        # data, memory only).  It follows the store, never leads it:
        # None whenever it cannot be known to match what is committed,
        # and then the next use re-seeds it with one scan.
        self._commitment: StateCommitment | None = None

    # -- key agreement helpers ---------------------------------------------

    @property
    def pk_tx(self) -> Point:
        return decode_point(self.confidential.pk_tx)

    # -- transaction intake -----------------------------------------------------

    def receive_transaction(self, tx: Transaction) -> bool:
        """Client submission: goes to the unverified pool."""
        return self.unverified.add(tx)

    def preverify_pending(self) -> int:
        """Run the pre-verification phase over the unverified pool.

        Confidential transactions are pushed into the CS enclave in
        batches of up to 64 (one transition per batch, Figure 7 step P1),
        where the recovered ``(tx_hash, k_tx, f_verified)`` is cached;
        public transactions verify outside the enclave.  Everything runs
        on the calling thread, and admitted transactions enter the
        verified pool in submission order.
        """
        with get_tracer().span("chain.preverify") as span:
            moved = 0
            while len(self.unverified):
                # Never out-run the verified pool: when it is full the
                # backlog must stay in `unverified` — where admission
                # control can see it and push back — rather than be
                # popped and silently dropped by a failing `add`.
                free = self.verified.capacity - len(self.verified)
                if free <= 0:
                    break
                batch = self.unverified.pop_batch(max_count=min(64, free))
                confidential = [tx for tx in batch if tx.is_confidential]
                verdicts: dict[bytes, bool] = {}
                if confidential:
                    results = self.confidential.preverify_batch(confidential)
                    verdicts = {
                        tx.tx_hash: ok for tx, ok in zip(confidential, results)
                    }
                for tx in batch:
                    if tx.is_confidential:
                        ok = verdicts[tx.tx_hash]
                    else:
                        ok = self.public.preverify(tx)
                    if ok:
                        self.verified.add(tx)
                        moved += 1
            span.set("admitted", moved)
        return moved

    def close(self, close_kv: bool = True) -> None:
        """Stop the node and (by default) cleanly close the underlying KV
        store, releasing its file handles.

        Idempotent, and flips :attr:`closed` first so block production
        racing a shutdown fails loudly (a block applied into a closing
        store could leave a torn WAL tail) instead of corrupting state.
        """
        if self._closed:
            return
        self._closed = True
        if close_kv:
            closer = getattr(self.kv, "close", None)
            if closer is not None:
                closer()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- block lifecycle --------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.chain)

    @property
    def head_hash(self) -> bytes:
        return self.chain[-1].block_hash if self.chain else GENESIS_HASH

    def draft_block(
        self,
        max_bytes: int = DEFAULT_BLOCK_BYTES,
        max_txs: int | None = None,
    ) -> list[Transaction]:
        """Pull transactions for the next block (leader role)."""
        return self.verified.pop_batch(max_count=max_txs, max_bytes=max_bytes)

    def apply_transactions(
        self, transactions: list[Transaction], proposer: int = 0
    ) -> AppliedBlock:
        """Execute an ordered batch and append the resulting block.

        `proposer` is the consensus leader's id — part of the replicated
        header, identical on every node.
        """
        if self._closed:
            raise ChainError("node is closed; cannot apply a block")
        commitment = self._commitment
        if commitment is None:
            commitment = scan_state_commitment(self.kv)
        # Adopted again only once the scope below has exited cleanly: an
        # enclave fault, an aborted block or a failed fsync leaves the
        # store at the last committed block and this update orphaned.
        self._commitment = None
        # Everything the block writes — every per-key state commit the
        # engines make during execution, plus the header/body/receipt
        # records below — lands in ONE atomic storage commit, so crash
        # recovery can only ever observe whole blocks.
        with self.kv.block_batch() as writes:
            with get_tracer().span("chain.block_execute",
                                   num_txs=len(transactions),
                                   height=self.height + 1):
                exec_started = time.perf_counter()
                report = self.executor.execute_block(transactions)
                exec_seconds = time.perf_counter() - exec_started

            receipt_blobs = [
                outcome.sealed_receipt
                if outcome.sealed_receipt is not None
                else outcome.receipt.encode()
                for outcome in report.outcomes
            ]

            # The store's own record of the block's writes, not the
            # outcomes' write sets: those miss nonce bumps, code records,
            # CCLe public halves and migration re-seals.
            with get_tracer().span("chain.state_commit") as span:
                puts = {
                    key: value for key, value in writes.puts.items()
                    if key.startswith(CONSENSUS_PREFIXES)
                }
                deletes = [
                    key for key in writes.deletes
                    if key.startswith(CONSENSUS_PREFIXES)
                ]
                inserted = commitment.update(puts, deletes)
                span.set("touched", len(puts) + len(deletes))
                span.set("inserted", inserted)
                span.set("leaves", len(commitment))
            state_root = commitment.root
            header = BlockHeader(
                height=self.height + 1,
                prev_hash=self.head_hash,
                tx_root=tx_merkle_root(transactions),
                state_root=state_root,
                receipts_root=receipts_merkle_root(receipt_blobs),
                proposer=proposer.to_bytes(8, "big"),
                timestamp=self.height + 1,
            )
            block = Block(header, list(transactions))

            write_started = time.perf_counter()
            # Persist the header (hash-indexed) plus the full block body
            # and its receipt blobs (height-indexed) so a restarted node
            # can recover its chain position from storage alone.  Bodies
            # hold sealed envelopes and sealed receipts — never plaintext.
            self.kv.write_batch(
                {
                    b"blk:" + header.block_hash: header.encode(),
                    _height_key(_BLOCK_DATA_PREFIX, header.height): block.encode(),
                    _height_key(_RECEIPTS_DATA_PREFIX, header.height):
                        rlp.encode(receipt_blobs),
                }
            )
            write_seconds = time.perf_counter() - write_started

        self._commitment = commitment
        self.chain.append(block)
        self._receipt_blobs_by_height[header.height] = receipt_blobs
        # Receipts are published only now that the block is committed
        # (and, with storage_sync, durable): a receipt a client can read
        # must never belong to a block a crash can still erase.
        for tx, blob in zip(transactions, receipt_blobs):
            # First write wins: a client resubmitting a transaction that
            # already committed re-executes it into a replay rejection;
            # the original receipt must stay the one queries return.
            self.receipts.setdefault(tx.tx_hash, blob)
        noter = getattr(self.kv, "note_state_root", None)
        if noter is not None:
            noter(state_root)
        return AppliedBlock(block, report, exec_seconds, write_seconds)

    def verify_block(self, block: Block) -> None:
        """Validate a block received from the (untrusted) leader before
        applying it: height continuity, parent linkage, tx commitment."""
        header = block.header
        if header.height != self.height + 1:
            raise ChainError(
                f"block height {header.height}, expected {self.height + 1}"
            )
        if header.prev_hash != self.head_hash:
            raise ChainError("block does not extend this chain")
        if not block.verify_tx_root():
            raise ChainError("block transaction root mismatch")

    def apply_block(self, block: Block) -> AppliedBlock:
        """Verify then execute a leader-proposed block; the locally
        computed header must match the proposed one bit for bit."""
        self.verify_block(block)
        applied = self.apply_transactions(
            block.transactions,
            proposer=int.from_bytes(block.header.proposer, "big"),
        )
        if applied.block.block_hash != block.block_hash:
            # Roll back would be needed in a real system; here we surface
            # the divergence (state roots disagree -> consensus failure).
            raise ChainError(
                "executed block diverges from the proposed header "
                f"(state root {applied.block.header.state_root.hex()[:16]} vs "
                f"{block.header.state_root.hex()[:16]})"
            )
        return applied

    def sync_from(self, peer: "Node") -> int:
        """Catch up by replaying a peer's blocks (new-node join).

        Each block is fully verified and re-executed locally; the
        locally computed headers must match the peer's bit for bit, so a
        lying peer cannot feed this node a forged history.  Requires the
        engines to already share keys (K-Protocol).  Returns the number
        of blocks applied.
        """
        applied = 0
        while self.height < peer.height:
            block = peer.chain[self.height]
            self.apply_block(block)
            applied += 1
        return applied

    def state_root(self) -> bytes:
        """Commitment over the replicated portion of this node's store,
        recomputed from storage — the audit that detects a store which
        has drifted from the chain (never the maintained root)."""
        return scan_state_commitment(self.kv).root

    def check_commitment(self) -> None:
        """Audit the maintained commitment against :meth:`state_root`:
        the root carried forward block by block must be the root the
        store recomputes to.  (Nothing to check while the commitment
        awaits re-seeding.)"""
        if self._commitment is None:
            return
        recomputed = self.state_root()
        if self._commitment.root != recomputed:
            raise ChainError(
                f"maintained state root {self._commitment.root.hex()[:16]} "
                f"but the store recomputes to {recomputed.hex()[:16]}"
            )

    # -- snapshots and fast bootstrap ---------------------------------------

    def write_snapshot(self) -> int:
        """Persist a checkpoint of the replicated state at the current
        height (the state-sync source; callers write one explicitly).
        Values inside are the sealed envelopes already in the store, so
        the snapshot leaks nothing the store itself does not.  Returns the
        snapshot height.
        """
        items = sorted(consensus_state(self.kv).items())
        blob = rlp.encode([
            rlp.encode_int(self.height),
            self.head_hash,
            StateCommitment(items).root,
            [[key, value] for key, value in items],
        ])
        self.kv.put(_SNAPSHOT_KEY, blob)
        return self.height

    def latest_snapshot(self) -> "Snapshot | None":
        blob = self.kv.get(_SNAPSHOT_KEY)
        if blob is None:
            return None
        fields = rlp.decode(blob)
        if not isinstance(fields, list) or len(fields) != 4:
            raise ChainError("malformed snapshot record")
        return Snapshot(
            height=rlp.decode_int(fields[0]),
            head_hash=fields[1],
            state_root=fields[2],
            items={entry[0]: entry[1] for entry in fields[3]},
        )

    def state_sync_from(self, peer: "Node") -> int:
        """Fast bootstrap: install the peer's latest snapshot instead of
        re-executing its whole history, then replay only the tail.

        Blocks up to the snapshot height are adopted without execution —
        but never without verification: linkage, tx root and receipts
        root are checked per block (:meth:`_adopt_block`), and the
        installed state must recompute to the snapshot's (and head
        header's) state root before anything past it is applied.  Blocks after the snapshot replay through the normal
        verified :meth:`apply_block` path.  Returns blocks adopted+applied.
        """
        if self.chain:
            raise ChainError("state_sync_from needs a fresh node")
        snapshot = peer.latest_snapshot()
        if snapshot is None:
            return self.sync_from(peer)
        self._commitment = None
        with self.kv.block_batch():
            for key, value in sorted(snapshot.items.items()):
                self.kv.put(key, value)
            commitment = scan_state_commitment(self.kv)
            if commitment.root != snapshot.state_root:
                raise ChainError(
                    "state-sync snapshot does not recompute to its state root"
                )
            for height in range(1, snapshot.height + 1):
                block = peer.chain[height - 1]
                if not block.verify_tx_root():
                    raise ChainError(
                        f"state-sync block {height} transaction root mismatch"
                    )
                receipt_blobs = peer.receipt_blobs_at(height)
                self._adopt_block(block, receipt_blobs)
                self.kv.write_batch({
                    b"blk:" + block.block_hash: block.header.encode(),
                    _height_key(_BLOCK_DATA_PREFIX, height): block.encode(),
                    _height_key(_RECEIPTS_DATA_PREFIX, height):
                        rlp.encode(receipt_blobs),
                })
            if self.chain and (
                self.chain[-1].header.state_root != snapshot.state_root
                or self.chain[-1].block_hash != snapshot.head_hash
            ):
                raise ChainError(
                    "state-sync snapshot disagrees with the peer chain head"
                )
        self._commitment = commitment
        noter = getattr(self.kv, "note_state_root", None)
        if noter is not None:
            noter(snapshot.state_root)
        tail = 0
        while self.height < peer.height:
            self.apply_block(peer.chain[self.height])
            tail += 1
        return snapshot.height + tail

    def restore_chain_from_storage(self) -> int:
        """Recover the chain after a restart by loading persisted blocks.

        Blocks are *not* re-executed — the KV store already holds the
        post-state of everything persisted (the state commit and the
        block write land in the same batch).  Each block is adopted like
        a state-synced one: linkage, tx root (on decode) and receipts
        root are re-verified, so a missing or altered receipts record is
        refused.  The recovered head's state root must match the root
        recomputed from storage; a mismatch means the database lost or
        gained state relative to the chain (durability violation).
        Returns the number of blocks restored.
        """
        if self.chain:
            raise ChainError("restore_chain_from_storage needs a fresh node")
        while True:
            height = self.height + 1
            blob = self.kv.get(_height_key(_BLOCK_DATA_PREFIX, height))
            if blob is None:
                break
            receipts = self.kv.get(_height_key(_RECEIPTS_DATA_PREFIX, height))
            if receipts is None:
                raise ChainError(f"persisted block {height} has no receipts")
            self._adopt_block(Block.decode(blob), rlp.decode(receipts))
        commitment = scan_state_commitment(self.kv)
        if self.chain and self.chain[-1].header.state_root != commitment.root:
            raise ChainError(
                "restored chain head disagrees with the state recomputed "
                "from storage (durability violation)"
            )
        self._commitment = commitment
        return self.height

    def _adopt_block(self, block: Block, receipt_blobs: list[bytes]) -> None:
        """Verify and record a block without executing it — the one path
        restart and state sync share.  Height, parent link and receipts
        root are checked here; the tx root is the caller's (Block.decode
        checks it for a persisted block)."""
        header = block.header
        if header.height != self.height + 1:
            raise ChainError(
                f"adopted block claims height {header.height}, "
                f"expected {self.height + 1}"
            )
        if header.prev_hash != self.head_hash:
            raise ChainError(f"block {header.height} chain linkage broken")
        if receipts_merkle_root(receipt_blobs) != header.receipts_root:
            raise ChainError(f"block {header.height} receipts root mismatch")
        self.chain.append(block)
        self._receipt_blobs_by_height[header.height] = receipt_blobs
        for tx, blob in zip(block.transactions, receipt_blobs):
            self.receipts.setdefault(tx.tx_hash, blob)

    def header_at(self, height: int) -> BlockHeader:
        if not 1 <= height <= self.height:
            raise ChainError(f"no block at height {height}")
        return self.chain[height - 1].header

    def receipt_blobs_at(self, height: int) -> list[bytes]:
        return list(self._receipt_blobs_by_height.get(height, []))


class Consortium:
    """A running consortium: leader rotation, block propagation, and
    cross-replica verification in one object."""

    def __init__(self, nodes: list[Node], rotate_leader: bool = True):
        if not nodes:
            raise ChainError("a consortium needs nodes")
        self.nodes = nodes
        self.rotate_leader = rotate_leader
        self._round = 0

    @property
    def leader(self) -> Node:
        return self.nodes[self._round % len(self.nodes) if self.rotate_leader else 0]

    def broadcast(self, tx: Transaction) -> None:
        """Client submission: every node hears about the transaction."""
        for node in self.nodes:
            node.receive_transaction(tx)

    def run_round(self, max_bytes: int = DEFAULT_BLOCK_BYTES,
                  max_txs: int | None = None) -> AppliedBlock:
        """One consensus round: pre-verify everywhere, leader proposes,
        replicas verify + apply, all headers must agree."""
        leader = self.leader
        for node in self.nodes:
            node.preverify_pending()
        batch = leader.draft_block(max_bytes=max_bytes, max_txs=max_txs)
        applied = leader.apply_transactions(batch, proposer=leader.node_id)
        for replica in self.nodes:
            if replica is leader:
                continue
            # Replicas drop the proposed txs from their own pools.
            for tx in batch:
                replica.verified.remove(tx.tx_hash)
            replica.apply_block(applied.block)
        self._round += 1
        return applied

    def run_until_empty(self, max_rounds: int = 1000,
                        max_bytes: int = DEFAULT_BLOCK_BYTES) -> int:
        """Run rounds until no node has pending transactions."""
        rounds = 0
        while rounds < max_rounds:
            pending = any(
                len(n.unverified) or len(n.verified) for n in self.nodes
            )
            if not pending:
                return rounds
            self.run_round(max_bytes=max_bytes)
            rounds += 1
        raise ChainError("consortium did not drain within max_rounds")

    @property
    def height(self) -> int:
        return self.nodes[0].height


def build_consortium(
    num_nodes: int,
    zones: list[int] | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
    key_mode: str = "decentralized",
    data_dirs: list[str] | None = None,
) -> tuple[list[Node], AttestationService]:
    """Create nodes and run the K-Protocol so all engines share keys."""
    if num_nodes < 1:
        raise ChainError("need at least one node")
    zones = zones or [0] * num_nodes
    nodes = [
        Node(
            i, zone=zones[i], config=config,
            data_dir=data_dirs[i] if data_dirs else None,
        )
        for i in range(num_nodes)
    ]
    attestation = AttestationService()
    for node in nodes:
        attestation.register_platform(node.confidential.platform)
    if key_mode == "decentralized":
        bootstrap_founder(nodes[0].confidential.km)
        for joiner in nodes[1:]:
            mutual_attested_provision(
                nodes[0].confidential.km, joiner.confidential.km, attestation
            )
    elif key_mode == "centralized":
        kms = CentralizedKMS(attestation)
        for node in nodes:
            kms.provision(node.confidential.km)
    else:
        raise ChainError(f"unknown key mode '{key_mode}'")
    for node in nodes:
        node.confidential.provision_from_km()
    return nodes, attestation
