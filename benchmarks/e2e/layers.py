"""Per-layer metrics of a traced run (layer = module of the program).

Inputs are what the rigs hand back: how far the counters moved over the
saturating bursts (``moved``) and over the whole timed window
(``whole``), the last snapshot, the span summary of :mod:`spans`, and the
load generator's own books.  Rates "per tx" divide by the transactions
committed in the bursts and count the work of *every* node, so the
consortium rig shows what replication costs.  Times are as measured, not
at reference speed; ``machine.slowdown_median`` says how the machine ran.
A metric whose span or counter is missing is ``None``.  Modeled
quantities carry ``modeled`` in their name and are never added to a
measured one.
"""

from __future__ import annotations

import time

import loadgen

CONTAINERS = ("gateway.handle_raw", "gateway.produce_block",
              "consortium.run_round")


def _ratio(numerator, denominator, scale: float = 1.0):
    if numerator is None or not denominator:
        return None
    return scale * numerator / denominator


def per_layer(workload, nodes, moved, whole, last, final, restart,
              books: dict) -> dict:
    spans = final.get("spans", {})
    sat = spans.get("saturate", {})

    def span(key, field, source=sat):
        entry = source.get(key)
        return None if entry is None else entry[field]

    def mean_ms(key, source=sat):
        return _ratio(span(key, "total_s", source), span(key, "count", source),
                      1e3)

    node, gateway = moved["node"], moved.get("gateway") or {}
    storage, ops_s, ops_n = node["storage"], node["op_seconds"], node["op_counts"]
    whole = whole["node"]["storage"]
    txs = books["txs"]
    blocks = node["height"]  # block applications, summed over the nodes
    wall_s = books["saturate_s"]
    on_serve = workload.rig == "serve"

    applies = span("node.apply_transactions", "count")
    replica_s = span("node.apply_block>node.apply_transactions", "total_s") or 0.0
    replica_n = span("node.apply_block>node.apply_transactions", "count") or 0
    leader_ms = _ratio(
        None if applies is None
        else span("node.apply_transactions", "total_s") - replica_s,
        None if applies is None else applies - replica_n, 1e3)
    container_s = sum(span(c, "total_s") or 0.0 for c in CONTAINERS)
    container_self_s = sum(span(c, "self_s") or 0.0 for c in CONTAINERS)
    hits, misses = whole.get("cache_hits"), whole.get("cache_misses")
    round_trip = spans.get("round-trip", {})
    idle_rtt = books["idle_rtt_s"]
    user_bytes = books["user_bytes_saturate"]

    metrics = {
        # serve: the front door.  Moves commit latency and committed_tps
        # on serve-coldchain; nothing on consortium-mixed.
        "serve.handle_raw_ms_per_req": mean_ms("gateway.handle_raw"),
        "serve.http_overhead_ms_per_req":
            None if idle_rtt is None or not round_trip else
            idle_rtt * 1e3 - span("gateway.handle_raw", "p50_ms", round_trip),
        "serve.produce_block_ms_per_block": _ratio(
            span("gateway.produce_block", "total_s"),
            span("gateway.produce_block", "hits"), 1e3),
        "serve.beat_idle_share":
            None if span("gateway.produce_block", "total_s") is None else
            max(0.0, 1.0 - span("gateway.produce_block", "total_s") / wall_s),
        "serve.requests": gateway.get("requests") if on_serve else None,
        "serve.backpressure_total":
            gateway.get("backpressure") if on_serve else None,
        # chain: pools, ordering, block assembly.
        "chain.preverify_ms_per_tx":
            _ratio(span("node.preverify_pending", "total_s"), txs, 1e3),
        "chain.preverify_batch_size_mean": _ratio(
            span("node.preverify_pending", "n"),
            span("node.preverify_pending", "hits")),
        "chain.pool_wait_ms_p50":
            (final.get("pool_wait_ms_p50") or {}).get("saturate"),
        "chain.unverified_depth_peak":
            last["node"]["pools"]["unverified_peak"],
        "chain.verified_depth_peak":
            last["node"]["pools"]["verified_peak"],
        "chain.txs_per_block_mean": _ratio(txs * nodes, blocks),
        "chain.blocks": _ratio(blocks, nodes),
        "chain.apply_ms_per_block": mean_ms("node.apply_transactions"),
        "chain.header_ms_per_block": _ratio(
            span("node.apply_transactions", "self_s"), applies, 1e3),
        "chain.leader_apply_ms_per_block": leader_ms,
        "chain.replica_apply_ms_per_block": mean_ms("node.apply_block"),
        "chain.modeled_pbft_round_ms":
            _modeled_round_ms(_ratio(user_bytes * nodes, blocks)),
        # core: the engines.  Moves committed_tps on serve-scf.
        "core.execute_ms_per_tx":
            _ratio(span("executor.execute_block", "total_s"), txs, 1e3),
        "core.contract_call_ms_per_tx":
            _ratio(ops_s.get("Contract Call"), txs, 1e3),
        "core.get_storage_ms_per_tx": _ratio(ops_s.get("GetStorage"), txs, 1e3),
        "core.set_storage_ms_per_tx": _ratio(ops_s.get("SetStorage"), txs, 1e3),
        "core.tx_decrypt_ms_per_tx":
            _ratio(ops_s.get("Transaction Decryption"), txs, 1e3),
        "core.tx_verify_ms_per_tx":
            _ratio(ops_s.get("Transaction Verify"), txs, 1e3),
        "core.contract_calls_per_tx": _ratio(ops_n.get("Contract Call"), txs),
        "core.get_storage_per_tx": _ratio(ops_n.get("GetStorage"), txs),
        "core.set_storage_per_tx": _ratio(ops_n.get("SetStorage"), txs),
        # tee: counts of the simulated enclave boundary; cycles are modeled.
        "tee.ecalls_per_tx": _ratio(node["tee"]["ecalls"], txs),
        "tee.ocalls_per_tx": _ratio(node["tee"]["ocalls"], txs),
        "tee.epc_page_swaps": node["tee"]["pages_swapped"],
        "tee.modeled_cycles_per_tx": _ratio(node["tee"]["cycles"], txs),
        # storage: commit, scan, cache, background work, recovery.
        "storage.commit_ms_per_block": mean_ms("kv.block_batch.commit"),
        "storage.state_scan_ms_per_block":
            mean_ms("node.apply_transactions>kv.items"),
        "storage.block_write_ms":
            mean_ms("node.apply_transactions>kv.write_batch"),
        "storage.wal_bytes_per_user_byte":
            _ratio(storage.get("wal_bytes_written"), user_bytes),
        "storage.wal_fsyncs_per_block": _ratio(storage.get("wal_fsyncs"), blocks),
        "storage.flushes": whole.get("flushes"),
        "storage.compactions": whole.get("compactions"),
        "storage.compacted_bytes": whole.get("compacted_bytes"),
        "storage.flush_stall_s": whole.get("flush_stall_seconds"),
        "storage.cache_hit_rate":
            None if hits is None or misses is None else
            _ratio(hits, hits + misses) or 0.0,
        "storage.cache_evictions":
            last["node"]["storage"].get("cache_evictions"),
        "storage.get_ms_p50": _weighted(spans, "kv.get", "p50_ms"),
        "storage.get_ms_p95": _weighted(spans, "kv.get", "p95_ms"),
        "storage.segments_live":
            _ratio(last["node"]["storage"].get("segments_live"), nodes),
        "storage.close_ms": restart["close_s"] * 1e3,
        "storage.reopen_ms": restart["reopen_s"] * 1e3,
        "storage.chain_restore_ms": restart["chain_restore_s"] * 1e3,
        # client: the benchmark's use of the client library (moves setup_s).
        "client.seal_ms_per_tx": _ratio(books["seal_s"], books["sealed"], 1e3),
        "client.open_receipt_ms_per_tx":
            _ratio(books["open_s"], books["opened"], 1e3),
        # loadgen: the benchmark's own health.
        "loadgen.commit_latency_tail_ms": books["latency"]["commit"]["tail_ms"],
        "loadgen.read_latency_tail_ms": books["latency"]["read"]["tail_ms"],
        "loadgen.lag_p95_ms":
            loadgen.percentile(books["lags_s"], 0.95) * 1e3
            if books["lags_s"] else None,
        "loadgen.polls_per_tx":
            _ratio(books["polls"], txs + books["paced_txs"]),
        "loadgen.cpu_share":
            _ratio(books["generator_cpu_s"], books["timed_s"]),
        # machine: how much slower than the reference the box ran.
        "machine.slowdown_median": books["slowdown_median"],
        # trace: what the spans themselves cost and miss.
        "trace.unattributed_share": _ratio(container_self_s, container_s),
        "trace.missing_wrap_points":
            len(set(final.get("missing_wrap_points") or ())),
    }
    metrics.update(crypto_layer())
    return metrics


def _weighted(spans: dict, key: str, field: str):
    """A per-phase statistic over the timed window, weighted by count."""
    entries = [spans[phase][key] for phase in ("saturate", "paced")
               if key in spans.get(phase, {})]
    count = sum(entry["count"] for entry in entries)
    if not count:
        return None
    return sum(entry[field] * entry["count"] for entry in entries) / count


def _modeled_round_ms(block_bytes):
    """The PBFT ordering model's latency for this run's mean block, on
    the paper's 4-node two-zone layout.  Modeled, never measured."""
    if not block_bytes:
        return None
    from repro.chain.consensus import PBFTOrderer
    from repro.chain.network import NetworkModel

    orderer = PBFTOrderer([0, 0, 1, 1], NetworkModel())
    return orderer.round_latency(int(block_bytes)).committed_s * 1e3


def crypto_layer(repeats: int = 5) -> dict:
    """Direct calls into the crypto layer, best of ``repeats``."""
    from repro.crypto import ecdsa, ecies, gcm
    from repro.crypto.keys import KeyPair

    def best(call) -> float:
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            call()
            times.append(time.perf_counter() - started)
        return min(times)

    cipher = gcm.AesGcm(b"k" * 16)
    nonce, block = b"n" * 12, b"p" * 4096
    sealed = cipher.seal(nonce, block, b"aad")
    pair = KeyPair.from_seed(b"e2e-crypto-layer")
    signature = ecdsa.sign(pair.private, b"message")
    envelope = ecies.encrypt(pair.public, b"k" * 16, b"aad")
    return {
        "crypto.aes_gcm_seal_mb_s":
            4096 / 1e6 / best(lambda: cipher.seal(nonce, block, b"aad")),
        "crypto.aes_gcm_open_mb_s":
            4096 / 1e6 / best(lambda: cipher.open(nonce, sealed, b"aad")),
        "crypto.ecdsa_verify_ms":
            best(lambda: ecdsa.verify(pair.public, b"message", signature)) * 1e3,
        "crypto.ecdsa_sign_ms":
            best(lambda: ecdsa.sign(pair.private, b"message")) * 1e3,
        "crypto.ecies_decrypt_ms":
            best(lambda: ecies.decrypt(pair, envelope, b"aad")) * 1e3,
    }
