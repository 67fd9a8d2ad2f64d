"""The node's incrementally maintained state commitment.

The header's state root now comes from a tree updated with each block's
storage-level write set instead of a full-store scan.  These tests pin
the rules that keep it honest: identical roots to the recompute on every
backend, the commitment follows the store (never leads it), receipts are
published only after the block is committed, and restart / state-sync
seed it so the next block scans nothing.
"""

from __future__ import annotations

import os

import pytest

from repro.chain.executor import BlockExecutor
from repro.chain.node import (
    CONSENSUS_PREFIXES,
    Node,
    build_consortium,
    consensus_state,
    make_store,
)
from repro.core.config import EngineConfig
from repro.core.engine import ConfidentialEngine
from repro.errors import ChainError, InvariantViolation, StorageError
from repro.obs.trace import get_tracer
from repro.storage import KVStore, LsmKV, MemoryKV
from repro.sim.invariants import check_state_commitment
from repro.storage.merkle import state_root
from repro.workloads import Client

BACKENDS = ["memory", "lsm"]


class _World:
    """`num_nodes` provisioned nodes on one backend plus a client that
    drives the counter contract through the first node."""

    def __init__(self, tmp_path, backend: str, artifact, num_nodes: int = 1,
                 replicate: bool = True, **config):
        self.config = EngineConfig(storage_backend=backend, **config)
        self.data_dirs = [
            os.path.join(str(tmp_path), f"node-{i}") for i in range(num_nodes)
        ]
        self.nodes, _ = build_consortium(
            num_nodes, config=self.config,
            data_dirs=None if backend == "memory" else self.data_dirs,
        )
        self.leader = self.nodes[0]
        self.replicas = self.nodes[1:] if replicate else []
        self.client = Client.from_seed(b"commitment-test")
        self.pk = self.leader.pk_tx
        deploy, self.address = self.client.confidential_deploy(
            self.pk, artifact
        )
        self.commit([deploy])

    def calls(self, count: int = 2):
        return [
            self.client.confidential_call(self.pk, self.address,
                                          "increment", b"")
            for _ in range(count)
        ]

    def draft(self, txs):
        for tx in txs:
            assert self.leader.receive_transaction(tx)
        self.leader.preverify_pending()
        return self.leader.draft_block(max_bytes=1 << 20)

    def commit(self, txs):
        """One block on the leader, replicated to every other node."""
        applied = self.leader.apply_transactions(self.draft(txs))
        for outcome in applied.report.outcomes:
            assert outcome.receipt.success, outcome.receipt.error
        for replica in self.replicas:
            replica.apply_block(applied.block)
        return applied

    def close(self):
        for node in self.nodes:
            node.close()


def _count_items_calls(kv) -> list[int]:
    """Count ``kv.items()`` calls from here on (wrapped on the instance,
    the way the end-to-end ledger does)."""
    calls = [0]
    inner = kv.items

    def items():
        calls[0] += 1
        return inner()

    kv.items = items
    return calls


class TestBlockWriteSet:
    """``block_batch()`` yields what the store staged, on every backend."""

    @pytest.fixture(params=BACKENDS)
    def kv(self, request, tmp_path):
        if request.param == "memory":
            store = MemoryKV()
        else:
            store = LsmKV(str(tmp_path / "db"))
        yield store
        closer = getattr(store, "close", None)
        if closer is not None:
            closer()

    def test_scope_records_last_write_per_key(self, kv):
        kv.put(b"old", b"0")
        with kv.block_batch() as writes:
            kv.put(b"a", b"1")
            kv.write_batch({b"b": b"2", b"c": b"3"}, {b"old"})
            kv.put(b"a", b"4")
            kv.delete(b"c")
            kv.delete(b"gone")
            kv.put(b"gone", b"back")
            assert kv.get(b"a") == b"4"  # reads see the scope's writes
        assert writes.puts == {b"a": b"4", b"b": b"2", b"gone": b"back"}
        assert writes.deletes == {b"old", b"c"}
        assert dict(kv.items()) == writes.puts

    def test_scope_does_not_nest_and_ends_on_error(self, kv):
        with pytest.raises(StorageError):
            with kv.block_batch():
                with kv.block_batch():
                    pass
        with pytest.raises(RuntimeError):
            with kv.block_batch():
                raise RuntimeError("abort")
        with kv.block_batch() as writes:
            kv.put(b"k", b"v")
        assert writes.puts == {b"k": b"v"}

    def test_a_store_that_knows_nothing_of_recording_is_recorded(self):
        """The base class records, so a new store (or a test fake) that
        only implements the interface cannot hand the node an empty
        write set, and a write that raised is not reported."""

        class PlainKV(KVStore):
            def __init__(self):
                self.data = {}

            def get(self, key):
                return self.data.get(key)

            def put(self, key, value):
                if key == b"bad":
                    raise StorageError("refused")
                self.data[key] = value

            def delete(self, key):
                self.data.pop(key, None)

            def items(self):
                return iter(list(self.data.items()))

        kv = PlainKV()
        kv.put(b"old", b"0")
        with kv.block_batch() as writes:
            kv.put(b"a", b"1")
            kv.write_batch({b"b": b"2"}, {b"old"})
            with pytest.raises(StorageError):
                kv.put(b"bad", b"x")
        assert writes.puts == {b"a": b"1", b"b": b"2"}
        assert writes.deletes == {b"old"}
        kv.put(b"after", b"scope")  # outside a scope: nothing recorded
        assert b"after" not in writes.puts


class TestMaintainedRoot:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_header_root_is_the_recomputed_root(
            self, tmp_path, counter_artifact, backend):
        world = _World(tmp_path, backend, counter_artifact)
        node = world.leader
        for _ in range(3):
            applied = world.commit(world.calls())
            recomputed = state_root(consensus_state(node.kv))
            assert applied.block.header.state_root == recomputed
            assert node.state_root() == recomputed
            node.check_commitment()
        # The blocks wrote every kind of consensus record, including the
        # nonce bumps and code records no outcome's write set reports.
        kinds = {key[:2] for key in consensus_state(node.kv)}
        assert kinds == set(CONSENSUS_PREFIXES)
        world.close()

    def test_audit_catches_a_store_that_drifted(self, tmp_path,
                                                counter_artifact):
        world = _World(tmp_path, "memory", counter_artifact)
        node = world.leader
        check_state_commitment(node)  # clean
        node.kv.put(CONSENSUS_PREFIXES[0] + b"behind-the-node's-back", b"x")
        with pytest.raises(ChainError):
            node.check_commitment()
        with pytest.raises(InvariantViolation, match="safety: node 0"):
            check_state_commitment(node)
        world.close()

    def test_steady_state_block_scans_nothing(self, tmp_path,
                                              counter_artifact):
        world = _World(tmp_path, "lsm", counter_artifact)
        calls = _count_items_calls(world.leader.kv)
        world.commit(world.calls())
        assert calls[0] == 0
        world.close()

    def test_state_commit_span_carries_counts_only(self, tmp_path,
                                                   counter_artifact):
        world = _World(tmp_path, "memory", counter_artifact)
        tracer = get_tracer()
        tracer.reset()
        tracer.enable()
        try:
            world.commit(world.calls())
        finally:
            tracer.disable()
        spans = [s for s in tracer.drain() if s.name == "chain.state_commit"]
        assert len(spans) == 1
        # Counts only — never keys or values (paper §5.3).
        assert set(spans[0].args) == {"touched", "inserted", "leaves"}
        assert all(type(v) is int for v in spans[0].args.values())
        assert spans[0].args["leaves"] == len(
            consensus_state(world.leader.kv))
        world.close()


def _fail_block(monkeypatch, node, point: str):
    """Make the next block on `node` raise out of its storage scope."""
    if point == "before_execute":
        def boom(_transactions):
            raise RuntimeError("enclave fault at ecall entry")
        monkeypatch.setattr(node.executor, "execute_block", boom)
    elif point == "block_write":
        inner = node.kv.write_batch

        def write_batch(puts, deletes=frozenset()):
            if any(key.startswith(b"blk:") for key in puts):
                raise StorageError("injected block-write failure")
            return inner(puts, deletes)
        monkeypatch.setattr(node.kv, "write_batch", write_batch)
    elif point == "fsync":
        def await_durable(_token):
            raise StorageError("injected fsync failure")
        monkeypatch.setattr(node.kv, "_await_durable", await_durable)
    else:
        raise AssertionError(point)


def _restart_enclave(node) -> None:
    """Recover from an enclave fault the way the fault simulator does: a
    fresh confidential engine (its in-enclave state cache gone with the
    old one) over the same store and platform."""
    engine = ConfidentialEngine(node.kv, node.config,
                                platform=node.confidential.platform)
    engine.restore_keys_from_storage()
    node.confidential = engine
    node.executor = BlockExecutor(engine, node.public, 1)


class TestAbortedBlock:
    """An aborted block leaves the commitment at the last committed
    root: block C's header must commit to what the store holds, and a
    replica that never saw the aborted block B must accept C."""

    @pytest.mark.parametrize("backend,point", [
        ("memory", "before_execute"),
        ("lsm", "before_execute"),
        # B executed and staged its writes, then the scope aborted: the
        # LSM store discards them, so the commitment must too.
        ("lsm", "block_write"),
    ])
    def test_replica_that_never_saw_b_accepts_c(
            self, tmp_path, monkeypatch, counter_artifact, backend, point):
        world = _World(tmp_path, backend, counter_artifact, num_nodes=2)
        leader, replica = world.nodes
        world.commit(world.calls())  # block A
        height = leader.height

        doomed = world.draft(world.calls())
        with monkeypatch.context() as patch:
            _fail_block(patch, leader, point)
            with pytest.raises((RuntimeError, StorageError)):
                leader.apply_transactions(doomed)
        assert leader.height == height
        assert leader._commitment is None  # dropped, not kept
        if point != "before_execute":
            _restart_enclave(leader)  # B's effects live on in its cache

        # B never committed, so its transactions are free to go into C.
        applied = leader.apply_transactions(doomed)
        assert applied.block.header.state_root == state_root(
            consensus_state(leader.kv))
        replica.apply_block(applied.block)  # raises on any divergence
        assert replica.state_root() == leader.state_root()
        world.close()

    def test_memory_store_keeps_an_aborted_blocks_writes_and_the_root_follows(
            self, tmp_path, monkeypatch, counter_artifact):
        # MemoryKV applies writes as they happen, so a block aborted
        # after execution leaves them in the store.  The commitment
        # follows the store: re-seeded by one scan, it commits to them.
        world = _World(tmp_path, "memory", counter_artifact)
        node = world.leader
        world.commit(world.calls())
        before = node.state_root()
        doomed = world.draft(world.calls())
        with monkeypatch.context() as patch:
            _fail_block(patch, node, "block_write")
            with pytest.raises(StorageError):
                node.apply_transactions(doomed)
        assert node.state_root() != before  # B's writes are in the store
        calls = _count_items_calls(node.kv)
        applied = node.apply_transactions(world.draft(world.calls()))
        assert calls[0] == 1  # the re-seed
        assert applied.block.header.state_root == state_root(
            consensus_state(node.kv))
        world.close()


class TestReceiptsAfterCommit:
    """receipt ⇒ committed: `get_receipt` must never answer for a block
    a crash can still erase."""

    @pytest.mark.parametrize("point", ["block_write", "fsync"])
    def test_no_receipt_for_a_block_that_failed_to_commit(
            self, tmp_path, monkeypatch, counter_artifact, point):
        world = _World(tmp_path, "lsm", counter_artifact,
                       storage_sync=True)
        node = world.leader
        world.commit(world.calls())
        committed = set(node.receipts)
        doomed = world.draft(world.calls())
        _fail_block(monkeypatch, node, point)
        with pytest.raises(StorageError):
            node.apply_transactions(doomed)
        for tx in doomed:
            assert tx.tx_hash not in node.receipts
            assert tx.tx_hash not in node.tx_outcomes
        assert set(node.receipts) == committed

        # The process dies; whatever the restored node recovers, every
        # receipt it serves belongs to a block in its chain.
        platform = node.confidential.platform
        node.close(close_kv=False)
        node.kv.crash()
        restored = Node(
            0, kv=make_store(world.config, world.data_dirs[0], platform),
            config=world.config, platform=platform,
        )
        restored.restore_chain_from_storage()
        in_chain = {
            tx.tx_hash for block in restored.chain
            for tx in block.transactions
        }
        assert set(restored.receipts) == in_chain
        if point == "block_write":  # nothing of B reached the WAL
            assert set(restored.receipts) == committed
        restored.close()


class TestSeeding:
    def test_restart_hands_over_the_tree_it_verified(self, tmp_path,
                                                     counter_artifact):
        world = _World(tmp_path, "lsm", counter_artifact)
        world.commit(world.calls())
        node = world.leader
        root, platform = node.state_root(), node.confidential.platform
        node.close()

        restarted = Node(
            0, kv=make_store(world.config, world.data_dirs[0], platform),
            config=world.config, platform=platform,
        )
        restarted.confidential.restore_keys_from_storage()
        calls = _count_items_calls(restarted.kv)
        assert restarted.restore_chain_from_storage() == 2
        assert calls[0] == 1  # the durability check's scan, and only it
        assert restarted._commitment.root == root

        world.leader = restarted
        applied = world.commit(world.calls())
        assert calls[0] == 1  # the first block afterwards scans nothing
        assert applied.block.header.state_root == restarted.state_root()
        restarted.close()

    def test_state_sync_seeds_from_its_verification_build(
            self, tmp_path, counter_artifact):
        # `fresh` shares the consortium keys but joins later, by state sync.
        world = _World(tmp_path, "memory", counter_artifact, num_nodes=2,
                       replicate=False)
        source, fresh = world.nodes
        world.commit(world.calls())
        source.write_snapshot()

        calls = _count_items_calls(fresh.kv)
        assert fresh.state_sync_from(source) == source.height
        assert calls[0] == 1  # "installed state recomputes to the root"
        assert fresh._commitment.root == source.state_root()

        applied = world.commit(world.calls())
        fresh.apply_block(applied.block)
        assert calls[0] == 1  # the first block afterwards scans nothing
        assert fresh.state_root() == source.state_root()
        world.close()
