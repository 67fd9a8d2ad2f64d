"""Benchmark harness: engine setup, workload deployment, throughput runs.

The harness measures *combined time*: wall-clock execution plus the
modeled TEE overhead accrued by the platform accountant (enclave
transitions, boundary copies, EPC paging) — see DESIGN.md's measurement
note.  Throughput figures therefore carry the hardware costs a pure
software simulation cannot exhibit.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from repro.core import ConfidentialEngine, PublicEngine, bootstrap_founder
from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.crypto.ecc import decode_point
from repro.errors import ReproError
from repro.lang import compile_source
from repro.storage import MemoryKV
from repro.workloads.clients import Client
from repro.workloads.synthetic import Workload


@dataclass
class ThroughputResult:
    """Outcome of one throughput run."""

    name: str
    transactions: int
    wall_seconds: float
    modeled_overhead_seconds: float = 0.0

    @property
    def combined_seconds(self) -> float:
        return self.wall_seconds + self.modeled_overhead_seconds

    @property
    def tps(self) -> float:
        return self.transactions / self.combined_seconds if self.combined_seconds else 0.0

    @property
    def latency_ms(self) -> float:
        return self.combined_seconds / self.transactions * 1000 if self.transactions else 0.0


@dataclass
class PublicRig:
    """A Public-Engine with one workload contract deployed."""

    engine: PublicEngine
    client: Client
    contract: bytes
    workload: Workload

    def make_tx(self, index: int):
        raw = self.client.call_raw(
            self.contract, self.workload.method, self.workload.make_input(index)
        )
        return Client.public(raw)

    def execute(self, tx):
        outcome = self.engine.execute(tx)
        if not outcome.receipt.success:
            raise ReproError(f"bench tx failed: {outcome.receipt.error}")
        return outcome

    def overhead_seconds(self) -> float:
        return 0.0


@dataclass
class ConfidentialRig:
    """A Confidential-Engine with one workload contract deployed."""

    engine: ConfidentialEngine
    client: Client
    contract: bytes
    workload: Workload

    @property
    def pk_tx(self):
        return decode_point(self.engine.pk_tx)

    def make_tx(self, index: int):
        return self.client.confidential_call(
            self.pk_tx, self.contract, self.workload.method,
            self.workload.make_input(index),
        )

    def execute(self, tx):
        outcome = self.engine.execute(tx)
        if not outcome.receipt.success:
            raise ReproError(f"bench tx failed: {outcome.receipt.error}")
        return outcome

    def overhead_seconds(self) -> float:
        return self.engine.platform.accountant.seconds


def build_public_rig(
    workload: Workload,
    vm: str = "wasm",
    config: EngineConfig = DEFAULT_CONFIG,
    seed: bytes = b"bench-public",
) -> PublicRig:
    """Deploy the workload contract into a fresh Public-Engine."""
    engine = PublicEngine(MemoryKV(), config)
    client = Client.from_seed(seed)
    artifact = compile_source(workload.source, vm)
    raw, address = client.deploy_raw(artifact, workload.schema_source)
    outcome = engine.execute(Client.public(raw))
    if not outcome.receipt.success:
        raise ReproError(f"deploy failed: {outcome.receipt.error}")
    return PublicRig(engine, client, address, workload)


def build_confidential_rig(
    workload: Workload,
    vm: str = "wasm",
    config: EngineConfig = DEFAULT_CONFIG,
    seed: bytes = b"bench-confidential",
) -> ConfidentialRig:
    """Deploy the workload contract into a fresh Confidential-Engine."""
    engine = ConfidentialEngine(MemoryKV(), config)
    bootstrap_founder(engine.km)
    engine.provision_from_km()
    client = Client.from_seed(seed)
    artifact = compile_source(workload.source, vm)
    tx, address = client.confidential_deploy(
        decode_point(engine.pk_tx), artifact, workload.schema_source
    )
    outcome = engine.execute(tx)
    if not outcome.receipt.success:
        raise ReproError(f"deploy failed: {outcome.receipt.error}")
    return ConfidentialRig(engine, client, address, workload)


def build_rig(workload: Workload, vm: str, confidential: bool,
              config: EngineConfig = DEFAULT_CONFIG):
    if confidential:
        return build_confidential_rig(workload, vm, config)
    return build_public_rig(workload, vm, config)


def run_throughput(
    rig,
    num_txs: int = 10,
    preverify: bool = False,
    start_index: int = 0,
    warmup: int = 2,
    trace_path: str | None = None,
) -> ThroughputResult:
    """Build txs up-front, then time the execution phase.

    With ``trace_path`` the measured phase runs under the span tracer and
    the drained spans are written there as Chrome trace-event JSON.  The
    tracer's buffered ring keeps the probe off the transition accounting,
    but the wall-clock numbers of a traced run still carry the probe's
    own (small) cost — compare traced runs with traced runs.
    """
    from repro.obs.export import drain_to_file
    from repro.obs.trace import get_tracer

    for w in range(warmup):
        tx = rig.make_tx(1_000_000 + start_index + w)
        if preverify:
            rig.engine.preverify(tx)
        rig.execute(tx)
    txs = [rig.make_tx(start_index + i) for i in range(num_txs)]
    if preverify:
        for tx in txs:
            rig.engine.preverify(tx)
    tracer = get_tracer()
    was_enabled = tracer.enabled
    if trace_path is not None:
        tracer.enabled = True
    overhead_before = rig.overhead_seconds()
    started = time.perf_counter()
    try:
        for tx in txs:
            rig.execute(tx)
    finally:
        wall = time.perf_counter() - started
        if trace_path is not None:
            drain_to_file(tracer, trace_path)
            tracer.enabled = was_enabled
    overhead = rig.overhead_seconds() - overhead_before
    return ThroughputResult(
        name=f"{rig.workload.name}",
        transactions=num_txs,
        wall_seconds=wall,
        modeled_overhead_seconds=overhead,
    )


def run_storage_bench(
    backends: tuple[str, ...] = ("memory", "lsm"),
    num_blocks: int = 8,
    txs_per_block: int = 4,
    workload_name: str = "string-concat",
    sync: bool = False,
    out_path: str | None = None,
) -> dict:
    """Block-commit latency across storage backends (docs/storage.md).

    For each backend a one-node chain commits ``num_blocks`` blocks of a
    state-writing workload; the per-block storage write time and the
    whole-block latency are recorded.  Persistent backends then prove
    durability: the node is closed, the store reopened from disk, and
    the restored chain must reach the same head and byte-identical state
    root — the restart path's recovery time is the "reopen" figure.
    """
    import statistics
    import tempfile

    from repro.chain.node import Node, build_consortium, make_store
    from repro.workloads.synthetic import synthetic_workloads

    workload = synthetic_workloads()[workload_name]
    artifact = compile_source(workload.source, "wasm")
    result: dict = {
        "workload": workload_name,
        "num_blocks": num_blocks,
        "txs_per_block": txs_per_block,
        "sync": sync,
        "cpu_count": os.cpu_count() or 1,
        "backends": {},
    }
    for backend in backends:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as root:
            data_dir = os.path.join(root, "node-0")
            # A small memtable forces the LSM through its whole lifecycle
            # inside the bench window — freezes, flushes and compaction,
            # all on the committing thread — instead of serving
            # everything from one never-frozen memtable.
            config = EngineConfig(storage_backend=backend, storage_sync=sync,
                                  storage_memtable_bytes=16 * 1024)
            nodes, _ = build_consortium(1, config=config, data_dirs=[data_dir])
            node = nodes[0]
            client = Client.from_seed(b"storage-bench")
            deploy_tx, contract = client.confidential_deploy(
                node.pk_tx, artifact, workload.schema_source
            )
            node.receive_transaction(deploy_tx)
            node.preverify_pending()
            node.apply_transactions(node.draft_block(max_bytes=1 << 22))

            write_seconds: list[float] = []
            block_seconds: list[float] = []
            index = 0
            for _ in range(num_blocks):
                for _ in range(txs_per_block):
                    node.receive_transaction(client.confidential_call(
                        node.pk_tx, contract, workload.method,
                        workload.make_input(index),
                    ))
                    index += 1
                node.preverify_pending()
                batch = node.draft_block(max_bytes=1 << 22)
                started = time.perf_counter()
                applied = node.apply_transactions(batch)
                block_seconds.append(time.perf_counter() - started)
                write_seconds.append(applied.write_seconds)
            head_hash = node.head_hash
            state_root = node.state_root()
            height = node.height
            platform = node.confidential.platform
            entry: dict = {
                "block_commit_ms": {
                    "mean": statistics.mean(block_seconds) * 1000,
                    "p50": statistics.median(block_seconds) * 1000,
                    "max": max(block_seconds) * 1000,
                },
                "storage_write_ms": {
                    "mean": statistics.mean(write_seconds) * 1000,
                    "p50": statistics.median(write_seconds) * 1000,
                    "max": max(write_seconds) * 1000,
                },
            }
            stats = getattr(node.kv, "stats_snapshot", None)
            if stats is not None:
                snap = stats()
                entry["lsm"] = {
                    key: snap[key]
                    for key in (
                        "wal_bytes_written", "wal_fsyncs", "flushes",
                        "freezes", "compactions", "segments_live",
                        "manifest_epoch", "cache_hit_rate",
                    )
                }
            node.close()
            if backend != "memory":
                started = time.perf_counter()
                kv = make_store(config, data_dir, platform)
                reopened = Node(
                    0, kv=kv, config=config, platform=platform
                )
                restored = reopened.restore_chain_from_storage()
                reopen_s = time.perf_counter() - started
                if (restored != height or reopened.head_hash != head_hash
                        or reopened.state_root() != state_root):
                    raise ReproError(
                        f"{backend}: reopened chain diverges from the one "
                        "committed before close"
                    )
                entry["reopen_ms"] = reopen_s * 1000
                entry["reopen_restored_blocks"] = restored
                reopened.close()
            result["backends"][backend] = entry
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
    return result

