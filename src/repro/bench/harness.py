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


def run_parallel_bench(
    workers: int = 4,
    num_txs: int = 32,
    workload_name: str = "crypto-hash",
    out_path: str | None = None,
) -> dict:
    """Serial-vs-pooled comparison of §5.2 pre-verification.

    The same confidential transaction batch goes through a serial pool
    and a ``workers``-wide pool; the two must produce identical records
    (verdict and recovered ``k_tx``, in submission order), so the bench
    doubles as a determinism check.  Block execution has no parallel
    path to compare (docs/parallelism.md).

    Honest numbers: wall-clock speedups are bounded by ``cpu_count``,
    which is recorded in the result.  On a single-core machine the pool
    pays coordination overhead for no parallelism; the ≥2x expectation
    only applies with ≥2 cores (docs/parallelism.md).
    """
    from repro.chain.preverify_pool import PreverifyPool
    from repro.workloads.synthetic import synthetic_workloads

    workload = synthetic_workloads()[workload_name]
    result: dict = {
        "cpu_count": os.cpu_count() or 1,
        "workers": workers,
        "workload": workload_name,
    }

    rig = build_confidential_rig(workload)
    txs = [rig.make_tx(i) for i in range(num_txs)]
    sk = rig.engine.export_worker_keys()

    serial_pool = PreverifyPool(workers=0)
    started = time.perf_counter()
    serial_records = serial_pool.run(txs, sk)
    serial_s = time.perf_counter() - started

    pool = PreverifyPool(workers=workers)
    try:
        pool.run(txs[:2], sk)  # absorb executor startup cost
        started = time.perf_counter()
        pool_records = pool.run(txs, sk)
        pool_s = time.perf_counter() - started
    finally:
        pool.close()

    def verdicts(records):
        return [(r.tx_hash, r.verified, r.k_tx) for r in records]

    if verdicts(serial_records) != verdicts(pool_records):
        raise ReproError("pool and serial pre-verification verdicts diverge")
    result["preverify"] = {
        "num_txs": num_txs,
        "serial_s": serial_s,
        "pool_s": pool_s,
        "speedup": serial_s / pool_s if pool_s else 0.0,
        "mode": pool.mode,
        "utilization": pool.stats.utilization(),
        "queue_depth_peak": pool.stats.queue_depth_peak,
        "deterministic_equivalent": True,  # the check above would have raised
    }

    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
    return result


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
            # inside the bench window — freezes, background flushes,
            # compaction, and cache warming on reopen — instead of
            # serving everything from one never-frozen memtable.
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
                        "manifest_epoch", "cache_hit_rate", "warmed_blocks",
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
                reopen_stats = getattr(reopened.kv, "stats_snapshot", None)
                if reopen_stats is not None:
                    entry["reopen_warmed_blocks"] = (
                        reopen_stats()["warmed_blocks"]
                    )
                reopened.close()
            result["backends"][backend] = entry
    if "lsm" in backends:
        result["group_commit"] = run_group_commit_bench()
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
    return result


def run_group_commit_bench(
    num_threads: int = 4,
    commits_per_thread: int = 16,
    value_bytes: int = 256,
) -> dict:
    """WAL group-commit figure: concurrent committers share fsyncs.

    A ``sync=True`` store pays one fsync per serial commit by
    construction.  With ``num_threads`` committers racing, the fsync
    leader's flush covers every record appended while it ran, so
    ``fsyncs_per_commit`` must drop below 1 — that coalescing is the
    whole point of group commit, and the CI bench gate watches it.
    """
    import tempfile
    import threading

    from repro.storage.lsm import LsmKV

    def run(threads: int) -> dict:
        total = num_threads * commits_per_thread
        per_thread = total // threads
        with tempfile.TemporaryDirectory(prefix="repro-gc-") as root:
            kv = LsmKV(os.path.join(root, "db"), sync=True,
                       memtable_bytes=1 << 22)
            errors: list[BaseException] = []

            def committer(worker: int) -> None:
                # One put == one sync commit.  block_batch is the node's
                # one-block-at-a-time staging area and refuses to nest,
                # so concurrent committers drive put() directly.
                try:
                    for i in range(per_thread):
                        kv.put(b"w%02d-%04d" % (worker, i),
                               os.urandom(value_bytes))
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            started = time.perf_counter()
            if threads == 1:
                committer(0)
            else:
                pool = [threading.Thread(target=committer, args=(w,))
                        for w in range(threads)]
                for t in pool:
                    t.start()
                for t in pool:
                    t.join()
            wall_s = time.perf_counter() - started
            if errors:
                raise ReproError(f"group-commit bench failed: {errors[0]}")
            fsyncs = kv.stats_snapshot()["wal_fsyncs"]
            kv.close()
        commits = per_thread * threads
        return {
            "commits": commits,
            "wall_s": wall_s,
            "fsyncs": fsyncs,
            "fsyncs_per_commit": fsyncs / commits,
            "commits_per_s": commits / wall_s if wall_s else 0.0,
        }

    return {
        "num_threads": num_threads,
        "value_bytes": value_bytes,
        "serial": run(1),
        "concurrent": run(num_threads),
    }


def run_shard_bench(
    shard_counts: tuple[int, ...] = (1, 2, 4),
    num_txs: int = 96,
    nodes_per_shard: int = 2,
    num_bundles: int = 4,
    out_path: str | None = None,
) -> dict:
    """Horizontal scale-out figure: aggregate committed TPS vs shards.

    For each shard count the same total transaction load is routed by
    conflict domain across the shards, then every shard group commits
    its backlog to empty.  Two numbers come out of the timed phase:

    - ``modeled_aggregate_tps`` — each shard group's drain is timed on
      its own, and the aggregate models N groups running on N machines:
      ``total_committed / max(per_shard_wall)``.  This is the same
      modeled-makespan convention as BENCH_parallel's ``makespan_s``:
      deterministic, honest about what it models, and independent of
      how many cores the runner happens to have.
    - ``threaded_tps`` — the same groups drained concurrently by a
      thread pool, measured on the wall clock.  Pure-Python crypto
      holds the GIL, so this only beats serial where ``cpu_count > 1``
      — which is recorded, and the regression gate (like
      BENCH_parallel's) only applies the multi-core expectation where
      the cores exist.

    Cross-shard commit cost is measured separately: ``num_bundles``
    escrow bundles driven through the attested receipt relay, with the
    round count and relay evidence mix recorded.
    """
    from repro.shard.coordinator import ShardCoordinator
    from repro.shard.group import build_sharded_consortium
    from repro.shard.relay import (
        ESCROW_CONTRACT_SOURCE,
        build_cross_shard_bundle,
    )

    result: dict = {
        "cpu_count": os.cpu_count() or 1,
        "num_txs": num_txs,
        "nodes_per_shard": nodes_per_shard,
        "num_bundles": num_bundles,
        "shards": {},
    }
    artifact = compile_source(ESCROW_CONTRACT_SOURCE, "wasm")

    for num_shards in shard_counts:
        consortium = build_sharded_consortium(num_shards, nodes_per_shard)
        try:
            pk_tx = decode_point(consortium.pk_tx)

            # Balanced client set: equal sender-domain ownership per
            # shard, so the routed load models a well-spread keyspace.
            per_shard_clients: dict[int, list[Client]] = {
                sid: [] for sid in range(num_shards)
            }
            seed_index = 0
            while any(len(v) < 4 for v in per_shard_clients.values()):
                client = Client.from_seed(
                    b"shard-bench-%d-%d" % (num_shards, seed_index)
                )
                seed_index += 1
                home = consortium.router.shard_for_sender(client.address)
                if len(per_shard_clients[home]) < 4:
                    per_shard_clients[home].append(client)
            clients = [c for sid in sorted(per_shard_clients)
                       for c in per_shard_clients[sid]]

            deploy_tx, contract = clients[0].confidential_deploy(
                pk_tx, artifact
            )
            consortium.submit(deploy_tx)
            consortium.run_until_empty()

            def inject(batch_tag: int) -> int:
                injected = 0
                for i in range(num_txs):
                    client = clients[i % len(clients)]
                    args = b"shard-bench-%d-%d:%06d" % (
                        num_shards, batch_tag, i)
                    tx = client.confidential_call(
                        pk_tx, contract, "put", args
                    )
                    injected += len(consortium.submit(tx))
                return injected

            # -- timed phase 1: per-shard serial drains ----------------
            inject(0)
            per_shard_wall: list[float] = []
            per_shard_committed: list[int] = []
            for group in consortium.groups:
                before = group.height
                started = time.perf_counter()
                group.run_until_empty(max_bytes=1 << 16)
                per_shard_wall.append(time.perf_counter() - started)
                committed = sum(
                    len(group.nodes[0].chain[h].transactions)
                    for h in range(before, group.height)
                )
                per_shard_committed.append(committed)
            total_committed = sum(per_shard_committed)
            modeled_wall = max(per_shard_wall)

            # -- timed phase 2: threaded concurrent drains -------------
            import concurrent.futures

            inject(1)
            started = time.perf_counter()
            with concurrent.futures.ThreadPoolExecutor(
                max_workers=num_shards
            ) as pool:
                futures = [
                    pool.submit(group.run_until_empty, 1000, 1 << 16)
                    for group in consortium.groups
                ]
                for future in futures:
                    future.result()
            threaded_wall = time.perf_counter() - started

            entry: dict = {
                "committed": total_committed,
                "per_shard_committed": per_shard_committed,
                "per_shard_wall_s": per_shard_wall,
                "modeled_wall_s": modeled_wall,
                "modeled_aggregate_tps": (
                    total_committed / modeled_wall if modeled_wall else 0.0
                ),
                "threaded_wall_s": threaded_wall,
                "threaded_tps": (
                    total_committed / threaded_wall if threaded_wall else 0.0
                ),
            }

            # -- cross-shard commit cost -------------------------------
            if num_shards > 1 and num_bundles:
                coordinator = ShardCoordinator(consortium)
                for i in range(num_bundles):
                    client = clients[i % len(clients)]
                    home = consortium.router.shard_for_sender(client.address)
                    remote = (home + 1) % num_shards
                    bundle = build_cross_shard_bundle(
                        client, pk_tx, contract, home, remote,
                        b"bench-xs-%06d" % i,
                    )
                    coordinator.submit(bundle)
                started = time.perf_counter()
                rounds = coordinator.run_to_quiescence()
                entry["cross_shard"] = {
                    "bundles": num_bundles,
                    "committed": coordinator.committed_total,
                    "aborted": coordinator.aborted_total,
                    "rounds_to_quiescence": rounds,
                    "wall_s": time.perf_counter() - started,
                    "relay_attested": coordinator.relay.attested_served,
                    "relay_quorum": coordinator.relay.quorum_served,
                }
            result["shards"][str(num_shards)] = entry
        finally:
            consortium.close()

    counts = sorted(int(k) for k in result["shards"])
    if len(counts) >= 2:
        base = result["shards"][str(counts[0])]["modeled_aggregate_tps"]
        top = result["shards"][str(counts[-1])]["modeled_aggregate_tps"]
        result["scaling"] = {
            "baseline_shards": counts[0],
            "top_shards": counts[-1],
            "modeled_speedup": top / base if base else 0.0,
        }

    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
    return result
