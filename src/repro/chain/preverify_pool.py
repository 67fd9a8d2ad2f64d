"""Off-path pre-verification worker pool (paper §5.2, made real).

"The signature verification could be processed in parallel before the
consensus" — previously the node *called* pre-verification off-path but
still ran every envelope decryption and ECDSA check on one thread.  This
pool actually fans the work out:

- **process mode** — a ``ProcessPoolExecutor``; the right choice for the
  CPU-bound ECIES + ECDSA math, which the GIL would otherwise serialize.
  Workers model in-enclave worker threads (SGX TCS entries): the CS
  enclave provisions them with ``sk_tx`` via
  ``ecall_export_worker_keys``, so in the modeled system the key never
  crosses the trust boundary (see docs/parallelism.md).
- **thread mode** — a ``ThreadPoolExecutor`` fallback; correct
  everywhere, concurrent only where the crypto releases the GIL.
- **serial mode** — workers=0; runs inline, used by the deterministic
  simulator and as the universal fallback.

Workers return plain picklable tuples; the parent folds them into
:class:`~repro.core.preprocessor.PreverifiedRecord` batches and installs
them into the owning engine with one enclave transition per batch.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.chain.transaction import (
    TX_CONFIDENTIAL,
    RawTransaction,
    Transaction,
)
from repro.core import t_protocol
from repro.core.preprocessor import PreverifiedRecord
from repro.crypto.keys import KeyPair

# Adaptive chunks never shrink below this: a submission carrying fewer
# transactions than this pays more in dispatch than it wins in overlap.
_MIN_ADAPTIVE_CHUNK = 4

_MODES = ("serial", "thread", "process")


# One tx result crossing back from a worker, as a picklable tuple:
# (tx_hash, tx_type, verified, k_tx, decrypt_seconds, verify_seconds).
_WireResult = tuple


def _preverify_one(sk: KeyPair | None, tx_type: int,
                   payload: bytes) -> _WireResult:
    tx = Transaction(tx_type, payload)
    decrypt_elapsed = 0.0
    k_tx = b""
    if tx.is_confidential:
        started = time.perf_counter()
        try:
            if sk is None:
                raise ValueError("no envelope key provisioned")
            k_tx, body = t_protocol.open_envelope_key(sk, payload)
            raw = t_protocol.open_body(k_tx, body)
        except Exception:
            decrypt_elapsed = time.perf_counter() - started
            return (tx.tx_hash, tx_type, False, b"", decrypt_elapsed, 0.0)
        decrypt_elapsed = time.perf_counter() - started
    else:
        try:
            raw = RawTransaction.decode(payload)
        except Exception:
            return (tx.tx_hash, tx_type, False, b"", 0.0, 0.0)
    started = time.perf_counter()
    verified = raw.verify_signature()
    verify_elapsed = time.perf_counter() - started
    return (tx.tx_hash, tx_type, verified, k_tx, decrypt_elapsed,
            verify_elapsed)


def _preverify_chunk(
    sk_bytes: bytes, chunk: list[tuple[int, bytes]]
) -> tuple[list[_WireResult], float]:
    """Worker entry point: pre-verify one batched submission.

    The whole chunk is one task — one pickle/dispatch round-trip and one
    worker wake-up amortized over every transaction in it — and
    batch-wide work is hoisted out of the per-tx loop: the envelope
    private key is parsed (and its scalar validated) once per
    submission, not once per transaction.
    """
    started = time.perf_counter()
    try:
        sk = (KeyPair.from_private(int.from_bytes(sk_bytes, "big"))
              if sk_bytes else None)
    except Exception:
        # A bad key makes confidential txs undecryptable (reported per
        # tx), it must not fail the whole submission.
        sk = None
    results = [_preverify_one(sk, tx_type, payload)
               for tx_type, payload in chunk]
    return results, time.perf_counter() - started


def _record_from_wire(wire: _WireResult) -> PreverifiedRecord:
    (tx_hash, tx_type, verified, k_tx, decrypt_s, verify_s) = wire
    return PreverifiedRecord(
        tx_hash=tx_hash, tx_type=tx_type, verified=verified, k_tx=k_tx,
        decrypt_seconds=decrypt_s, verify_seconds=verify_s,
    )


@dataclass
class PoolStats:
    """Observability counters for one pool's lifetime."""

    submitted: int = 0
    verified_ok: int = 0
    verified_bad: int = 0
    undecryptable: int = 0
    batches: int = 0
    queue_depth_peak: int = 0
    busy_seconds: float = 0.0
    wall_seconds: float = 0.0
    workers: int = 0
    mode: str = "serial"

    def utilization(self) -> float:
        """Fraction of worker capacity kept busy, 0..1."""
        capacity = max(1, self.workers) * self.wall_seconds
        if capacity <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / capacity)

    def snapshot(self) -> dict:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "submitted": self.submitted,
            "verified_ok": self.verified_ok,
            "verified_bad": self.verified_bad,
            "undecryptable": self.undecryptable,
            "batches": self.batches,
            "queue_depth_peak": self.queue_depth_peak,
            "busy_seconds": self.busy_seconds,
            "wall_seconds": self.wall_seconds,
            "utilization": self.utilization(),
        }


@dataclass
class PreverifyPool:
    """Fans pre-verification across workers; yields install-ready records.

    ``workers=0`` (or mode="serial") runs inline.  mode="auto" picks
    processes when more than one CPU is visible, threads otherwise —
    process-pool startup is pure overhead when there is only one core
    to schedule onto.
    """

    workers: int = 0
    mode: str = "auto"
    # None = adaptive: serial mode verifies the whole batch as one
    # submission; parallel modes split it into ~2 chunks per worker
    # (enough slack for load balancing, few enough that dispatch
    # overhead stays amortized).  An explicit size is honored as-is.
    chunk_size: int | None = None
    stats: PoolStats = field(default_factory=PoolStats)
    _executor: Executor | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        import os

        if self.mode == "auto":
            if self.workers <= 0:
                self.mode = "serial"
            elif (os.cpu_count() or 1) > 1:
                self.mode = "process"
            else:
                self.mode = "thread"
        if self.mode not in _MODES:
            raise ValueError(f"unknown preverify pool mode '{self.mode}'")
        if self.workers <= 0:
            self.mode = "serial"
        self.stats.mode = self.mode
        self.stats.workers = self.workers if self.mode != "serial" else 0

    def _ensure_executor(self) -> Executor | None:
        if self.mode == "serial":
            return None
        if self._executor is None:
            if self.mode == "process":
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="preverify",
                )
        return self._executor

    def _effective_chunk_size(self, batch_len: int) -> int:
        if self.chunk_size is not None:
            return max(1, self.chunk_size)
        if self.mode == "serial":
            return batch_len  # one inline call, zero dispatch overhead
        target_chunks = max(1, self.workers) * 2
        return max(_MIN_ADAPTIVE_CHUNK,
                   -(-batch_len // target_chunks))  # ceil division

    def run(self, txs: list[Transaction],
            sk_bytes: bytes = b"") -> list[PreverifiedRecord]:
        """Pre-verify a batch; returns records in submission order.

        ``sk_bytes`` is the envelope private key (from
        ``ConfidentialEngine.export_worker_keys``); required only when
        the batch contains confidential transactions.
        """
        if not txs:
            return []
        started = time.perf_counter()
        payloads = [(tx.tx_type, tx.payload) for tx in txs]
        chunk_size = self._effective_chunk_size(len(payloads))
        chunks = [payloads[i:i + chunk_size]
                  for i in range(0, len(payloads), chunk_size)]
        executor = self._ensure_executor()
        wire_results: list[_WireResult] = []
        if executor is None:
            for chunk in chunks:
                results, busy = _preverify_chunk(sk_bytes, chunk)
                wire_results.extend(results)
                self.stats.busy_seconds += busy
        else:
            futures = [executor.submit(_preverify_chunk, sk_bytes, chunk)
                       for chunk in chunks]
            self.stats.queue_depth_peak = max(
                self.stats.queue_depth_peak, len(futures)
            )
            for future in futures:  # submission order == block order
                results, busy = future.result()
                wire_results.extend(results)
                self.stats.busy_seconds += busy
        records = [_record_from_wire(wire) for wire in wire_results]
        self.stats.submitted += len(records)
        self.stats.batches += 1
        self.stats.wall_seconds += time.perf_counter() - started
        for record in records:
            if record.tx_type == TX_CONFIDENTIAL and not record.k_tx:
                self.stats.undecryptable += 1
            elif record.verified:
                self.stats.verified_ok += 1
            else:
                self.stats.verified_bad += 1
        return records

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "PreverifyPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
