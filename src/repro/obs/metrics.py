"""Metric samples read straight from the sources that keep them.

Every layer already keeps its own cumulative totals: ``OperationStats``
(Table 1), the platform ``CycleAccountant`` and EPC pager, the wasm code
cache, the SDM, the pre-processor, both transaction pools,
``LsmKV.stats_snapshot()``, the tracer ring and a fuzz campaign's
``TargetStats``.  The readers here turn those totals into
:class:`Sample` rows at scrape time, and
:func:`repro.obs.export.prometheus_text` renders them; nothing is copied
into an intermediate store.

Semantics follow Prometheus: a *counter* is a running total, a *gauge* a
point-in-time level.  Names, label names and label values pass the
confidentiality guard (:mod:`repro.obs.guard`) when rendered, so a
metric can never be labeled with payload bytes.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

COUNTER = "counter"
GAUGE = "gauge"


class Sample(NamedTuple):
    """One exposition line, with its family's TYPE and HELP."""

    name: str
    kind: str
    help: str
    labels: dict
    value: float


def _counter(name: str, help: str, value, **labels) -> Sample:
    return Sample(name, COUNTER, help, labels, value)


def _gauge(name: str, help: str, value, **labels) -> Sample:
    return Sample(name, GAUGE, help, labels, value)


# CycleAccountant.snapshot() key -> (family, help); all counters.
_ACCOUNTANT = {
    "cycles": ("confide_tee_cycles_total", "modeled TEE cycles accrued"),
    "seconds": ("confide_tee_modeled_seconds_total",
                "modeled TEE overhead on the reference CPU"),
    "ecalls": ("confide_tee_ecalls_total", "enclave entries"),
    "ocalls": ("confide_tee_ocalls_total", "enclave exits"),
    "bytes_copied": ("confide_tee_bytes_copied_total",
                     "boundary marshalling bytes"),
    "pages_swapped": ("confide_tee_pages_swapped_total",
                      "EPC pages encrypted/evicted or paged back in"),
    "allocations": ("confide_tee_allocations_total",
                    "enclave heap allocations"),
}

# LsmKV.stats_snapshot() key -> (family, kind, help).
_STORAGE = {
    "wal_bytes_written": ("confide_storage_wal_bytes_total", COUNTER,
                          "bytes framed into the write-ahead log"),
    "wal_records_written": ("confide_storage_wal_records_total", COUNTER,
                            "atomic batch records appended to the WAL"),
    "wal_truncated_bytes": ("confide_storage_wal_truncated_bytes_total",
                            COUNTER,
                            "torn-tail bytes discarded during WAL recovery"),
    "wal_fsyncs": ("confide_storage_wal_fsyncs_total", COUNTER,
                   "WAL fsyncs issued (one per commit, plus rotation and "
                   "close)"),
    "flushes": ("confide_storage_flushes_total", COUNTER,
                "memtable flushes into SSTable segments"),
    "freezes": ("confide_storage_freezes_total", COUNTER,
                "memtable freezes (WAL rotations) flushed by the committer"),
    "flush_bytes": ("confide_storage_flush_bytes_total", COUNTER,
                    "segment bytes written by flushes"),
    "compactions": ("confide_storage_compactions_total", COUNTER,
                    "size-tiered compaction rounds"),
    "compacted_bytes": ("confide_storage_compacted_bytes_total", COUNTER,
                        "segment bytes consumed by compaction"),
    "block_commits": ("confide_storage_block_commits_total", COUNTER,
                      "atomic block batches committed"),
    "cache_hits": ("confide_storage_block_cache_hits_total", COUNTER,
                   "block cache hits"),
    "cache_misses": ("confide_storage_block_cache_misses_total", COUNTER,
                     "block cache misses"),
    "cache_hit_rate": ("confide_storage_block_cache_hit_rate", GAUGE,
                       "block cache hit fraction"),
    "recovery_seconds": ("confide_storage_recovery_seconds", GAUGE,
                         "seconds spent recovering the store on open"),
    "segments_live": ("confide_storage_segments_live", GAUGE,
                      "live SSTable segments"),
    "manifest_epoch": ("confide_storage_manifest_epoch", GAUGE,
                       "current sealed manifest epoch"),
}


def operation_samples(stats, engine: str) -> Iterator[Sample]:
    """An :class:`~repro.core.stats.OperationStats` ledger, per op."""
    durations, counts = stats.snapshot()
    for op, total in durations.items():
        yield _counter("confide_op_seconds_total",
                       "accumulated wall-clock seconds per operation",
                       total, engine=engine, op=op)
    for op, count in counts.items():
        yield _counter("confide_op_count_total",
                       "operation invocation counts",
                       count, engine=engine, op=op)


def engine_samples(engine, label: str = "public") -> Iterator[Sample]:
    """What every execution engine keeps, labeled ``engine=label``."""
    # Imported here: the VM imports repro.obs before repro.core exists.
    from repro.core.stats import (
        DEPLOY_REJECT,
        DEPLOY_REJECT_BYTECODE,
        DEPLOY_REJECT_SOURCE,
    )

    yield from operation_samples(engine.stats, label)
    if engine.config.use_code_cache:
        cache = engine.code_cache_stats
        yield _counter("confide_code_cache_hits_total",
                       "prepared-module cache hits",
                       cache.hits, engine=label)
        yield _counter("confide_code_cache_misses_total",
                       "prepared-module cache misses",
                       cache.misses, engine=label)
        yield _counter("confide_code_cache_evictions_total",
                       "prepared-module cache evictions",
                       cache.evictions, engine=label)
        yield _gauge("confide_code_cache_entries",
                     "prepared modules resident", cache.entries,
                     engine=label)
    yield _counter("confide_analysis_rejections_total",
                   "deploys refused by the static verifier",
                   engine.stats.count(DEPLOY_REJECT), engine=label)
    for mode, op in (("source+bytecode", DEPLOY_REJECT_SOURCE),
                     ("bytecode-only", DEPLOY_REJECT_BYTECODE)):
        yield _counter("confide_analysis_rejections_by_mode_total",
                       "deploys refused by static analysis, split by "
                       "admission mode",
                       engine.stats.count(op), engine=label, mode=mode)


def confidential_samples(engine, label: str = "confidential"
                         ) -> Iterator[Sample]:
    """The Confidential-Engine: :func:`engine_samples` plus the
    platform, the pre-processor and the SDM.  Every value is a host-side
    ledger the CS enclave writes into; none needs an ecall to read."""
    yield from engine_samples(engine, label)
    snap = engine.platform.accountant.snapshot()
    for key, (name, help) in _ACCOUNTANT.items():
        yield _counter(name, help, snap[key])
    epc = engine.platform.epc
    yield _gauge("confide_epc_resident_pages",
                 "4 KB pages currently resident in the EPC",
                 epc.resident_pages)
    yield _gauge("confide_epc_budget_pages",
                 "usable EPC budget in pages", epc.budget_pages)
    yield _gauge("confide_epc_pool_free_pages",
                 "pages parked on the OPT1 memory-pool freelist",
                 epc.pool_pages_free)
    preprocessor = engine.preprocessor
    yield _counter("confide_preverify_cache_hits_total",
                   "metadata-cache hits at execution time",
                   preprocessor.cache_hits)
    yield _counter("confide_preverify_cache_misses_total",
                   "metadata-cache misses at execution time",
                   preprocessor.cache_misses)
    yield _counter("confide_preverified_total",
                   "transactions admitted by pre-verification",
                   preprocessor.preverified)
    # Pre-verification runs off the execution path (§5.2) and keeps
    # its own ledger; its own engine label keeps TX_VERIFY visible
    # when the metadata cache absorbs it from the execution profile.
    yield from operation_samples(preprocessor.off_path_stats,
                                 f"{label}-preverify")
    yield _counter("confide_sdm_cache_hits_total",
                   "SDM state-cache hits", engine.sdm_stats.hits)
    yield _counter("confide_sdm_cache_misses_total",
                   "SDM state-cache misses", engine.sdm_stats.misses)


def pool_samples(pool, name: str) -> Iterator[Sample]:
    """One :class:`~repro.chain.mempool.TxPool`, labeled ``pool=name``."""
    yield _gauge("confide_mempool_depth", "transactions waiting in a pool",
                 len(pool), pool=name)
    yield _counter("confide_txpool_rejected_total",
                   "transactions dropped because the pool was full",
                   pool.rejected_full, pool=name)
    yield _counter("confide_txpool_oversized_total",
                   "transactions dropped for exceeding the block byte "
                   "budget alone",
                   pool.dropped_oversized, pool=name)
    yield _counter("confide_txpool_accepted_total",
                   "transactions admitted into a pool",
                   pool.accepted_total, pool=name)
    yield _gauge("confide_mempool_depth_peak",
                 "highest depth a pool has reached",
                 pool.depth_peak, pool=name)


def storage_samples(kv) -> Iterator[Sample]:
    """An :class:`~repro.storage.lsm.LsmKV`'s engine counters; the
    in-memory store keeps none."""
    snapshot = getattr(kv, "stats_snapshot", None)
    if snapshot is None:
        return
    snap = snapshot()
    for key, (name, kind, help) in _STORAGE.items():
        yield Sample(name, kind, help, {}, snap[key])


def node_samples(node) -> Iterator[Sample]:
    """A full node: both engines, both pools and the store."""
    yield from confidential_samples(node.confidential)
    yield from engine_samples(node.public, "public")
    yield from pool_samples(node.unverified, "unverified")
    yield from pool_samples(node.verified, "verified")
    yield from storage_samples(node.kv)


def tracer_samples(tracer) -> Iterator[Sample]:
    """The tracer's exit-less span ring."""
    yield _counter("confide_trace_ring_dropped_total",
                   "records overwritten in the exit-less trace ring",
                   tracer.ring.dropped)
    yield _gauge("confide_trace_spans_buffered",
                 "finished spans awaiting drain", len(tracer.ring))


def fuzz_samples(result) -> Iterator[Sample]:
    """A :class:`~repro.fuzz.harness.FuzzResult` campaign, per target."""
    total_execs = 0
    for name, stats in result.stats.items():
        execs = stats.execs + stats.minimize_execs
        total_execs += execs
        yield _counter("confide_fuzz_execs_total",
                       "differential executions performed",
                       execs, target=name)
        for vm, edges in (("wasm", stats.edges_wasm),
                          ("evm", stats.edges_evm)):
            yield _gauge("confide_fuzz_coverage_edges",
                         "distinct branch edges covered",
                         edges, target=name, vm=vm)
        yield _gauge("confide_fuzz_corpus_entries",
                     "sequences retained in the corpus",
                     stats.corpus_entries, target=name)
        yield _counter("confide_fuzz_solver_attempts_total",
                       "constraint-solver candidate executions",
                       stats.solver_attempts, target=name)
        yield _counter("confide_fuzz_constraint_flips_total",
                       "branches flipped by the solver",
                       stats.constraint_flips, target=name)
        for kind, count in stats.findings.items():
            yield _counter("confide_fuzz_findings_total", "oracle findings",
                           count, target=name, kind=kind)
    if result.elapsed_s:
        yield _gauge("confide_fuzz_execs_per_second", "campaign throughput",
                     round(total_execs / result.elapsed_s, 1))
