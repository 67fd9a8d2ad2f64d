"""Pull-model bridges from the legacy stat sources into the registry.

Each ``collect_*`` function copies one source's cumulative totals into
registry metrics.  The sources keep their original APIs —
``OperationStats``, ``CycleAccountant.snapshot()``, the EPC allocator,
``CodeCache.stats``, the pre-processor counters, the mempool and the
enclave monitor ring all stay exactly where the rest of the codebase
expects them — so this module is the backward-compatible shim layer the
observability subsystem absorbs them through.

Collection is cheap (a few dict reads per source), so callers run it at
natural checkpoints: after a bench run, or on a scrape.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

# Canonical metric names (Table 1 operations keep their paper names as
# the ``op`` label value).
OP_SECONDS = "confide_op_seconds_total"
OP_COUNT = "confide_op_count_total"
TEE_CYCLES = "confide_tee_cycles_total"
TEE_SECONDS = "confide_tee_modeled_seconds_total"
TEE_ECALLS = "confide_tee_ecalls_total"
TEE_OCALLS = "confide_tee_ocalls_total"
TEE_BYTES_COPIED = "confide_tee_bytes_copied_total"
TEE_PAGES_SWAPPED = "confide_tee_pages_swapped_total"
TEE_ALLOCATIONS = "confide_tee_allocations_total"
EPC_RESIDENT_PAGES = "confide_epc_resident_pages"
EPC_BUDGET_PAGES = "confide_epc_budget_pages"
EPC_POOL_FREE_PAGES = "confide_epc_pool_free_pages"
CODE_CACHE_HITS = "confide_code_cache_hits_total"
CODE_CACHE_MISSES = "confide_code_cache_misses_total"
CODE_CACHE_EVICTIONS = "confide_code_cache_evictions_total"
CODE_CACHE_ENTRIES = "confide_code_cache_entries"
SDM_CACHE_HITS = "confide_sdm_cache_hits_total"
SDM_CACHE_MISSES = "confide_sdm_cache_misses_total"
PREVERIFY_CACHE_HITS = "confide_preverify_cache_hits_total"
PREVERIFY_CACHE_MISSES = "confide_preverify_cache_misses_total"
PREVERIFIED = "confide_preverified_total"
MEMPOOL_DEPTH = "confide_mempool_depth"
TXPOOL_REJECTED = "confide_txpool_rejected_total"
TXPOOL_OVERSIZED = "confide_txpool_oversized_total"
MONITOR_RING_DROPPED = "confide_monitor_ring_dropped_total"
TRACE_RING_DROPPED = "confide_trace_ring_dropped_total"
TRACE_SPANS_BUFFERED = "confide_trace_spans_buffered"
ANALYSIS_REJECTIONS = "confide_analysis_rejections_total"
ANALYSIS_REJECTIONS_BY_MODE = "confide_analysis_rejections_by_mode_total"
STORAGE_WAL_BYTES = "confide_storage_wal_bytes_total"
STORAGE_WAL_RECORDS = "confide_storage_wal_records_total"
STORAGE_WAL_TRUNCATED_BYTES = "confide_storage_wal_truncated_bytes_total"
STORAGE_WAL_FSYNCS = "confide_storage_wal_fsyncs_total"
STORAGE_FLUSHES = "confide_storage_flushes_total"
STORAGE_FREEZES = "confide_storage_freezes_total"
STORAGE_FLUSH_STALL_SECONDS = "confide_storage_flush_stall_seconds_total"
STORAGE_FLUSH_PENDING = "confide_storage_flush_pending"
STORAGE_FLUSH_BYTES = "confide_storage_flush_bytes_total"
STORAGE_COMPACTIONS = "confide_storage_compactions_total"
STORAGE_COMPACTED_BYTES = "confide_storage_compacted_bytes_total"
STORAGE_BLOCK_COMMITS = "confide_storage_block_commits_total"
STORAGE_CACHE_HITS = "confide_storage_block_cache_hits_total"
STORAGE_CACHE_MISSES = "confide_storage_block_cache_misses_total"
STORAGE_CACHE_HIT_RATE = "confide_storage_block_cache_hit_rate"
STORAGE_RECOVERY_SECONDS = "confide_storage_recovery_seconds"
STORAGE_SEGMENTS_LIVE = "confide_storage_segments_live"
STORAGE_MANIFEST_EPOCH = "confide_storage_manifest_epoch"
FUZZ_EXECS = "confide_fuzz_execs_total"
FUZZ_COVERAGE_EDGES = "confide_fuzz_coverage_edges"
FUZZ_CORPUS_ENTRIES = "confide_fuzz_corpus_entries"
FUZZ_FINDINGS = "confide_fuzz_findings_total"
FUZZ_SOLVER_ATTEMPTS = "confide_fuzz_solver_attempts_total"
FUZZ_CONSTRAINT_FLIPS = "confide_fuzz_constraint_flips_total"
FUZZ_EXECS_PER_SECOND = "confide_fuzz_execs_per_second"
TXPOOL_ACCEPTED = "confide_txpool_accepted_total"
MEMPOOL_DEPTH_PEAK = "confide_mempool_depth_peak"
SERVE_REQUESTS = "confide_serve_requests_total"
SERVE_REQUEST_SECONDS = "confide_serve_request_seconds_total"
SERVE_ACCEPTED = "confide_serve_accepted_total"
SERVE_BACKPRESSURE = "confide_serve_backpressure_total"
SERVE_RATE_LIMITED = "confide_serve_rate_limited_total"
SERVE_DUPLICATES = "confide_serve_duplicates_total"
SERVE_INVALID = "confide_serve_invalid_total"
SERVE_INTERNAL_ERRORS = "confide_serve_internal_errors_total"
SERVE_BLOCKS_PRODUCED = "confide_serve_blocks_produced_total"
SERVE_TXS_COMMITTED = "confide_serve_txs_committed_total"
SERVE_RECEIPTS_SERVED = "confide_serve_receipts_served_total"
SERVE_RATELIMIT_CLIENTS = "confide_serve_ratelimit_clients"


def collect_operation_stats(registry: MetricsRegistry, stats,
                            engine: str) -> None:
    """Absorb an :class:`~repro.core.stats.OperationStats` ledger."""
    seconds = registry.counter(
        OP_SECONDS, "accumulated wall-clock seconds per operation",
        ("engine", "op"),
    )
    counts = registry.counter(
        OP_COUNT, "operation invocation counts", ("engine", "op"),
    )
    durations, raw_counts = stats.snapshot()
    for op, total in durations.items():
        seconds.set_total(total, engine=engine, op=op)
    for op, count in raw_counts.items():
        counts.set_total(count, engine=engine, op=op)


def collect_accountant(registry: MetricsRegistry, accountant) -> None:
    """Absorb a :class:`~repro.tee.transitions.CycleAccountant`."""
    snap = accountant.snapshot()
    registry.counter(
        TEE_CYCLES, "modeled TEE cycles accrued"
    ).set_total(snap["cycles"])
    registry.counter(
        TEE_SECONDS, "modeled TEE overhead on the reference CPU"
    ).set_total(snap["seconds"])
    registry.counter(TEE_ECALLS, "enclave entries").set_total(snap["ecalls"])
    registry.counter(TEE_OCALLS, "enclave exits").set_total(snap["ocalls"])
    registry.counter(
        TEE_BYTES_COPIED, "boundary marshalling bytes"
    ).set_total(snap["bytes_copied"])
    registry.counter(
        TEE_PAGES_SWAPPED, "EPC pages encrypted/evicted or paged back in"
    ).set_total(snap["pages_swapped"])
    registry.counter(
        TEE_ALLOCATIONS, "enclave heap allocations"
    ).set_total(snap["allocations"])


def collect_epc(registry: MetricsRegistry, epc) -> None:
    """Absorb the EPC pager's occupancy gauges."""
    registry.gauge(
        EPC_RESIDENT_PAGES, "4 KB pages currently resident in the EPC"
    ).set(epc.resident_pages)
    registry.gauge(
        EPC_BUDGET_PAGES, "usable EPC budget in pages"
    ).set(epc.budget_pages)
    registry.gauge(
        EPC_POOL_FREE_PAGES, "pages parked on the OPT1 memory-pool freelist"
    ).set(epc.pool_pages_free)


def collect_code_cache(registry: MetricsRegistry, cache,
                       engine: str) -> None:
    """Absorb wasm code-cache hit/miss/eviction stats."""
    if cache is None:
        return
    registry.counter(
        CODE_CACHE_HITS, "prepared-module cache hits", ("engine",)
    ).set_total(cache.stats.hits, engine=engine)
    registry.counter(
        CODE_CACHE_MISSES, "prepared-module cache misses", ("engine",)
    ).set_total(cache.stats.misses, engine=engine)
    registry.counter(
        CODE_CACHE_EVICTIONS, "prepared-module cache evictions", ("engine",)
    ).set_total(cache.stats.evictions, engine=engine)
    registry.gauge(
        CODE_CACHE_ENTRIES, "prepared modules resident", ("engine",)
    ).set(len(cache), engine=engine)


def collect_sdm(registry: MetricsRegistry, sdm) -> None:
    """Absorb the Secure Data Module's state-cache counters."""
    if sdm is None:
        return
    registry.counter(
        SDM_CACHE_HITS, "SDM state-cache hits"
    ).set_total(sdm.cache_hits)
    registry.counter(
        SDM_CACHE_MISSES, "SDM state-cache misses"
    ).set_total(sdm.cache_misses)


def collect_preprocessor(registry: MetricsRegistry, preprocessor) -> None:
    """Absorb the §5.2 pre-verification cache counters."""
    registry.counter(
        PREVERIFY_CACHE_HITS, "metadata-cache hits at execution time"
    ).set_total(preprocessor.cache_hits)
    registry.counter(
        PREVERIFY_CACHE_MISSES, "metadata-cache misses at execution time"
    ).set_total(preprocessor.cache_misses)
    registry.counter(
        PREVERIFIED, "transactions admitted by pre-verification"
    ).set_total(preprocessor.preverified)


def collect_monitor_ring(registry: MetricsRegistry, ring,
                         component: str = "monitor") -> None:
    """Surface ``RingBuffer.dropped`` from the exit-less path."""
    name = (MONITOR_RING_DROPPED if component == "monitor"
            else TRACE_RING_DROPPED)
    registry.counter(
        name, f"records overwritten in the exit-less {component} ring"
    ).set_total(ring.dropped)


def collect_tracer(registry: MetricsRegistry, tracer) -> None:
    collect_monitor_ring(registry, tracer.ring, component="trace")
    registry.gauge(
        TRACE_SPANS_BUFFERED, "finished spans awaiting drain"
    ).set(len(tracer.ring))


def collect_mempool(registry: MetricsRegistry, pool, name: str) -> None:
    registry.gauge(
        MEMPOOL_DEPTH, "transactions waiting in a pool", ("pool",)
    ).set(len(pool), pool=name)
    registry.counter(
        TXPOOL_REJECTED, "transactions dropped because the pool was full",
        ("pool",),
    ).set_total(pool.rejected_full, pool=name)
    registry.counter(
        TXPOOL_OVERSIZED,
        "transactions dropped for exceeding the block byte budget alone",
        ("pool",),
    ).set_total(pool.dropped_oversized, pool=name)
    registry.counter(
        TXPOOL_ACCEPTED, "transactions admitted into a pool", ("pool",),
    ).set_total(pool.accepted_total, pool=name)
    registry.gauge(
        MEMPOOL_DEPTH_PEAK, "highest depth a pool has reached", ("pool",),
    ).set(pool.depth_peak, pool=name)


def collect_engine(registry: MetricsRegistry, engine,
                   label: str = "confidential") -> None:
    """Absorb everything one execution engine exposes."""
    from repro.core.stats import (
        DEPLOY_REJECT,
        DEPLOY_REJECT_BYTECODE,
        DEPLOY_REJECT_SOURCE,
    )

    collect_operation_stats(registry, engine.stats, engine=label)
    collect_code_cache(registry, engine.code_cache, engine=label)
    registry.counter(
        ANALYSIS_REJECTIONS, "deploys refused by the static verifier",
        ("engine",),
    ).set_total(engine.stats.count(DEPLOY_REJECT), engine=label)
    by_mode = registry.counter(
        ANALYSIS_REJECTIONS_BY_MODE,
        "deploys refused by static analysis, split by admission mode",
        ("engine", "mode"),
    )
    by_mode.set_total(engine.stats.count(DEPLOY_REJECT_SOURCE),
                      engine=label, mode="source+bytecode")
    by_mode.set_total(engine.stats.count(DEPLOY_REJECT_BYTECODE),
                      engine=label, mode="bytecode-only")
    platform = getattr(engine, "platform", None)
    if platform is not None:
        collect_accountant(registry, platform.accountant)
        collect_epc(registry, platform.epc)
    preprocessor = getattr(engine, "preprocessor", None)
    if preprocessor is not None:
        collect_preprocessor(registry, preprocessor)
        # Pre-verification costs run off the execution path (§5.2) and
        # are ledgered separately; surface them under their own engine
        # label so TX_VERIFY stays visible when the metadata cache
        # absorbs it from the execution profile.
        collect_operation_stats(
            registry, preprocessor.off_path_stats,
            engine=f"{label}-preverify",
        )
    sdm = getattr(engine, "sdm", None)
    if sdm is not None:
        collect_sdm(registry, sdm)


def collect_storage(registry: MetricsRegistry, kv) -> None:
    """Absorb an :class:`~repro.storage.lsm.LsmKV`'s engine counters."""
    snapshot = getattr(kv, "stats_snapshot", None)
    if snapshot is None:
        return
    snap = snapshot()
    registry.counter(
        STORAGE_WAL_BYTES, "bytes framed into the write-ahead log"
    ).set_total(snap["wal_bytes_written"])
    registry.counter(
        STORAGE_WAL_RECORDS, "atomic batch records appended to the WAL"
    ).set_total(snap["wal_records_written"])
    registry.counter(
        STORAGE_WAL_TRUNCATED_BYTES,
        "torn-tail bytes discarded during WAL recovery",
    ).set_total(snap["wal_truncated_bytes"])
    registry.counter(
        STORAGE_WAL_FSYNCS,
        "WAL fsyncs issued (one per commit, plus rotation and close)",
    ).set_total(snap["wal_fsyncs"])
    registry.counter(
        STORAGE_FLUSHES, "memtable flushes into SSTable segments"
    ).set_total(snap["flushes"])
    registry.counter(
        STORAGE_FREEZES, "memtable freezes handed to the background worker"
    ).set_total(snap["freezes"])
    registry.counter(
        STORAGE_FLUSH_STALL_SECONDS,
        "seconds commits stalled waiting for a busy flush slot",
    ).set_total(snap["flush_stall_seconds"])
    registry.gauge(
        STORAGE_FLUSH_PENDING,
        "frozen memtables awaiting the background worker",
    ).set(snap["flush_pending"])
    registry.counter(
        STORAGE_FLUSH_BYTES, "segment bytes written by flushes"
    ).set_total(snap["flush_bytes"])
    registry.counter(
        STORAGE_COMPACTIONS, "size-tiered compaction rounds"
    ).set_total(snap["compactions"])
    registry.counter(
        STORAGE_COMPACTED_BYTES, "segment bytes consumed by compaction"
    ).set_total(snap["compacted_bytes"])
    registry.counter(
        STORAGE_BLOCK_COMMITS, "atomic block batches committed"
    ).set_total(snap["block_commits"])
    registry.counter(
        STORAGE_CACHE_HITS, "block cache hits"
    ).set_total(snap["cache_hits"])
    registry.counter(
        STORAGE_CACHE_MISSES, "block cache misses"
    ).set_total(snap["cache_misses"])
    registry.gauge(
        STORAGE_CACHE_HIT_RATE, "block cache hit fraction"
    ).set(snap["cache_hit_rate"])
    registry.gauge(
        STORAGE_RECOVERY_SECONDS, "seconds spent recovering the store on open"
    ).set(snap["recovery_seconds"])
    registry.gauge(
        STORAGE_SEGMENTS_LIVE, "live SSTable segments"
    ).set(snap["segments_live"])
    registry.gauge(
        STORAGE_MANIFEST_EPOCH, "current sealed manifest epoch"
    ).set(snap["manifest_epoch"])


def collect_fuzz(registry: MetricsRegistry, result) -> None:
    """Absorb a :class:`~repro.fuzz.harness.FuzzResult` campaign."""
    execs = registry.counter(
        FUZZ_EXECS, "differential executions performed", ("target",))
    edges = registry.gauge(
        FUZZ_COVERAGE_EDGES, "distinct branch edges covered",
        ("target", "vm"))
    corpus = registry.gauge(
        FUZZ_CORPUS_ENTRIES, "sequences retained in the corpus",
        ("target",))
    findings = registry.counter(
        FUZZ_FINDINGS, "oracle findings", ("target", "kind"))
    attempts = registry.counter(
        FUZZ_SOLVER_ATTEMPTS, "constraint-solver candidate executions",
        ("target",))
    flips = registry.counter(
        FUZZ_CONSTRAINT_FLIPS, "branches flipped by the solver",
        ("target",))
    total_execs = 0
    for name, stats in sorted(result.stats.items()):
        execs.set_total(stats.execs + stats.minimize_execs, target=name)
        total_execs += stats.execs + stats.minimize_execs
        edges.set(stats.edges_wasm, target=name, vm="wasm")
        edges.set(stats.edges_evm, target=name, vm="evm")
        corpus.set(stats.corpus_entries, target=name)
        attempts.set_total(stats.solver_attempts, target=name)
        flips.set_total(stats.constraint_flips, target=name)
        for kind, count in sorted(stats.findings.items()):
            findings.set_total(count, target=name, kind=kind)
    if result.elapsed_s:
        registry.gauge(
            FUZZ_EXECS_PER_SECOND, "campaign throughput"
        ).set(round(total_execs / result.elapsed_s, 1))


def collect_gateway(registry: MetricsRegistry, gateway) -> None:
    """Absorb a serving :class:`~repro.serve.gateway.Gateway`'s counters.

    Labels carry only gateway vocabulary (method names, outcome words) —
    never client identities or payload-derived strings; the guard
    enforces it.
    """
    requests = registry.counter(
        SERVE_REQUESTS, "gateway requests by method and outcome",
        ("method", "outcome"),
    )
    for (method, outcome), count in sorted(gateway.requests_total.items()):
        requests.set_total(count, method=method, outcome=outcome)
    seconds = registry.counter(
        SERVE_REQUEST_SECONDS, "gateway request handling seconds by method",
        ("method",),
    )
    for method, total in sorted(gateway.request_seconds_total.items()):
        seconds.set_total(total, method=method)
    registry.counter(
        SERVE_ACCEPTED, "transactions admitted through the gateway"
    ).set_total(gateway.accepted_total)
    registry.counter(
        SERVE_BACKPRESSURE,
        "submissions refused because the unverified pool was full",
    ).set_total(gateway.backpressure_total)
    registry.counter(
        SERVE_RATE_LIMITED, "requests refused by the per-client token bucket"
    ).set_total(gateway.limiter.denied_total)
    registry.counter(
        SERVE_DUPLICATES, "resubmissions of already-known transactions"
    ).set_total(gateway.duplicates_total)
    registry.counter(
        SERVE_INVALID, "malformed or invalid requests refused"
    ).set_total(gateway.invalid_total)
    registry.counter(
        SERVE_INTERNAL_ERRORS, "requests that hit an internal error"
    ).set_total(gateway.internal_errors_total)
    registry.counter(
        SERVE_BLOCKS_PRODUCED, "blocks cut by the gateway's producer"
    ).set_total(gateway.blocks_produced)
    registry.counter(
        SERVE_TXS_COMMITTED, "transactions committed through the gateway"
    ).set_total(gateway.txs_committed)
    registry.counter(
        SERVE_RECEIPTS_SERVED, "receipt lookups answered with a receipt"
    ).set_total(gateway.receipts_served)
    registry.gauge(
        SERVE_RATELIMIT_CLIENTS, "client buckets tracked by the rate limiter"
    ).set(len(gateway.limiter))
    collect_node(registry, gateway.node)


def collect_node(registry: MetricsRegistry, node) -> None:
    """Absorb a full node: both engines plus the transaction pools."""
    collect_engine(registry, node.confidential, label="confidential")
    collect_engine(registry, node.public, label="public")
    collect_mempool(registry, node.unverified, "unverified")
    collect_mempool(registry, node.verified, "verified")
    collect_storage(registry, node.kv)

