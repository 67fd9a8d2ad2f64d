"""The system under test, as both rigs build and observe it.

Only the documented public surface is used: ``Node``, ``EngineConfig``,
``Platform``, and the counters the layers already keep
(``LsmKV.stats_snapshot``, ``TxPool.depth_peak``, ``OperationStats``,
the platform ``CycleAccountant``).  A counter that no longer exists
reads as ``None``; it never fails a run.
"""

from __future__ import annotations

import os
import resource
import statistics
import time

from repro.chain.node import Node
from repro.core.config import EngineConfig
from repro.tee.enclave import Platform

from spans import Recorder, summarize, write_chrome_trace

# The paper's §6 settings, and the flush policy every result states:
# sealed LSM store, one fsync per block commit.
ENGINE_CONFIG = EngineConfig(storage_backend="lsm", storage_sync=True)
BLOCK_BYTES = 4096
BLOCK_INTERVAL_S = 0.030


def open_node(node_id: int, data_dir: str, platform: Platform) -> Node:
    """A node on its own sealed LSM store (fresh or reopened)."""
    return Node(node_id, config=ENGINE_CONFIG, data_dir=data_dir,
                platform=platform)


def restore_node(node_id: int, data_dir: str, platform: Platform
                 ) -> tuple[Node, dict]:
    """Reopen a closed node's data dir on its platform and recover keys
    and chain from storage; returns the node and how long each step took."""
    started = time.perf_counter()
    node = open_node(node_id, data_dir, platform)
    reopened = time.perf_counter()
    node.confidential.restore_keys_from_storage()
    node.restore_chain_from_storage()
    restored = time.perf_counter()
    return node, {"reopen_s": reopened - started,
                  "chain_restore_s": restored - reopened,
                  "height": node.height}


def state_keys(node: Node) -> list[str]:
    """Hex of every contract-state key, the population paced reads draw on."""
    return sorted(key.hex() for key, _ in node.kv.items()
                  if key.startswith(b"s:"))


def process_usage() -> dict:
    """CPU seconds and peak resident set of the calling process."""
    return {
        "cpu_s": time.process_time(),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def commit_direct(node: Node, txs: list, block_txs: int) -> None:
    """Set-up traffic: admit ``txs`` and apply them in blocks of up to
    ``block_txs``, without a gateway or a beat."""
    for tx in txs:
        if not node.receive_transaction(tx):
            raise RuntimeError("set-up transaction refused by the pool")
    while len(node.unverified) or len(node.verified):
        node.preverify_pending()
        batch = node.draft_block(max_bytes=1 << 30, max_txs=block_txs)
        if not batch:
            raise RuntimeError("set-up transactions failed pre-verification")
        node.apply_transactions(batch, proposer=node.node_id)


def _probe(read):
    try:
        return read()
    except (AttributeError, KeyError, TypeError):
        return None


def counters(node: Node) -> dict:
    """Cumulative counters of one node, grouped by layer."""
    accountant = _probe(lambda: node.confidential.platform.accountant)
    # Table 1's ledger, plus the one pre-verification fills off the
    # execution path (same operation names).
    ledgers = [
        _probe(lambda: node.confidential.stats.snapshot()),
        _probe(lambda: node.confidential.preprocessor.off_path_stats.snapshot()),
    ]
    op_seconds: dict[str, float] = {}
    op_counts: dict[str, int] = {}
    for seconds, counts in filter(None, ledgers):
        for name, value in seconds.items():
            op_seconds[name] = op_seconds.get(name, 0.0) + value
        for name, value in counts.items():
            op_counts[name] = op_counts.get(name, 0) + value
    return {
        "storage": _probe(lambda: dict(node.kv.stats_snapshot())) or {},
        "op_seconds": op_seconds,
        "op_counts": op_counts,
        "tee": {
            name: _probe(lambda: getattr(accountant, name))
            for name in ("ecalls", "ocalls", "pages_swapped", "cycles")
        },
        "pools": {
            "unverified_peak": _probe(lambda: node.unverified.depth_peak),
            "verified_peak": _probe(lambda: node.verified.depth_peak),
        },
        "height": node.height,
    }


def combine(trees: list, op):
    """Apply ``op`` leaf-wise over same-shaped counter trees; a leaf that
    is missing or not a number in any tree is ``None`` in the result."""
    if all(isinstance(tree, dict) for tree in trees):
        keys = sorted(set().union(*trees))
        return {key: combine([tree.get(key) for tree in trees], op)
                for key in keys}
    if all(isinstance(tree, (int, float)) for tree in trees):
        return op(trees)
    return None


def total(trees: list[dict]) -> dict:
    return combine(trees, sum)


def delta(after: dict, before: dict) -> dict:
    return combine([after, before], lambda pair: pair[0] - pair[1])


class PoolWaits:
    """Admitted → drafted wait per transaction, across every node."""

    def __init__(self, recorder: Recorder, clock=time.perf_counter):
        self._recorder = recorder
        self._clock = clock
        self._admitted: dict[bytes, float] = {}
        self.waits: dict[str, list[float]] = {}

    def admitted(self, tx) -> None:
        self._admitted.setdefault(tx.tx_hash, self._clock())

    def drafted(self, batch) -> None:
        now = self._clock()
        waits = self.waits.setdefault(self._recorder.phase, [])
        for tx in batch:
            at = self._admitted.pop(tx.tx_hash, None)
            if at is not None:
                waits.append(now - at)

    def p50_ms(self) -> dict[str, float]:
        return {phase: statistics.median(waits) * 1e3
                for phase, waits in self.waits.items() if waits}


def trace_report(recorder: Recorder, waits: PoolWaits,
                 trace_out: str | None) -> dict:
    """What a traced rig hands back when it finishes."""
    if trace_out:
        write_chrome_trace(recorder.spans, trace_out, os.getpid())
    return {"spans": summarize(recorder.spans),
            "pool_wait_ms_p50": waits.p50_ms(),
            "missing_wrap_points": recorder.missing}


def _applied(result, _args):
    if result is None:
        return None, None
    return result.block.header.height, len(result.block.transactions)


def instrument(recorder: Recorder, waits: PoolWaits, node: Node,
               gateway=None) -> None:
    """Install the span wrappers on one node (and its gateway)."""
    def drafted(batch, _args):
        waits.drafted(batch)
        return None, len(batch)

    if gateway is not None:
        recorder.wrap(gateway, "handle_raw", "gateway.handle_raw")
        recorder.wrap(gateway, "produce_block", "gateway.produce_block",
                      _applied)
    recorder.wrap(node, "preverify_pending", "node.preverify_pending",
                  lambda moved, _a: (None, moved))
    recorder.wrap(node, "draft_block", "node.draft_block", drafted)
    recorder.wrap(node, "apply_transactions", "node.apply_transactions",
                  _applied)
    recorder.wrap(node, "apply_block", "node.apply_block", _applied)
    recorder.wrap(node.executor, "execute_block", "executor.execute_block",
                  lambda _r, args: (None, len(args[0])))
    recorder.wrap_exit(node.kv, "block_batch", "kv.block_batch.commit")
    recorder.wrap(node.kv, "write_batch", "kv.write_batch")
    recorder.wrap(node.kv, "items", "kv.items")
    recorder.wrap(node.kv, "get", "kv.get")
    receive = getattr(node, "receive_transaction", None)
    if receive is None:
        recorder.missing.append("node.receive_transaction")
    else:
        def receive_transaction(tx):
            waits.admitted(tx)
            return receive(tx)
        node.receive_transaction = receive_transaction
