"""Transaction pre-processor and pre-verification cache (paper §5.2).

Two expensive operations dominate confidential-transaction admission:
private-key envelope decryption and signature verification.  Both can
run *before* consensus, in parallel, while transactions sit in the
unverified pool; the recovered metadata — ``(tx hash, k_tx,
f_verified)`` — is cached inside the CS enclave.

At execution time the pre-processor first consults the cache (steps
C2–C3 in Figure 7): on a hit only the cheap symmetric decryption
remains; on a miss the transaction takes the full path.

Pre-verification has one path: a batch crosses into the CS enclave in
one ecall (step P1) and each transaction is opened and verified there
(steps P2–P4).  Nothing outside the enclave can put a verdict or a
``k_tx`` into the cache.  The gateway reaches the engine from more than
one thread, so cache mutation is lock-protected.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.chain.transaction import RawTransaction, Transaction
from repro.core import t_protocol
from repro.core.stats import TX_DECRYPT, TX_VERIFY, OperationStats
from repro.crypto.keys import KeyPair
from repro.errors import ProtocolError
from repro.obs.trace import get_tracer


@dataclass(frozen=True)
class TxMetadata:
    """What pre-verification caches per transaction hash."""

    k_tx: bytes
    f_verified: bool


@dataclass
class ProcessedTx:
    """Outcome of admitting one confidential transaction."""

    raw: RawTransaction
    k_tx: bytes
    verified: bool
    cache_hit: bool


class PreProcessor:
    """The pre-processor inside the CS enclave."""

    DEFAULT_CACHE_CAPACITY = 10_000

    def __init__(self, stats: OperationStats | None = None,
                 cache_capacity: int = DEFAULT_CACHE_CAPACITY):
        from collections import OrderedDict

        # The metadata cache lives inside the CS enclave, where memory is
        # EPC-constrained — bound it and evict the oldest entries.
        self._cache: "OrderedDict[bytes, TxMetadata]" = OrderedDict()
        self._capacity = cache_capacity
        self._stats = stats or OperationStats()
        self._lock = threading.Lock()
        # Pre-verification happens off the execution path (pre-consensus,
        # parallelizable), so its costs are ledgered separately and never
        # show up in the Table 1 execution profile.
        self.off_path_stats = OperationStats()
        self.preverified = 0
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def stats(self) -> OperationStats:
        return self._stats

    def preverify(self, sk_tx: KeyPair, tx: Transaction) -> bool:
        """Full decrypt + verify; cache the metadata (steps P2–P4)."""
        if not tx.is_confidential:
            raise ProtocolError("pre-verification is for confidential transactions")
        with get_tracer().span("preprocess.preverify",
                               payload_bytes=len(tx.payload)) as span:
            k_tx, raw = self._full_open(sk_tx, tx.payload, self.off_path_stats)
            verified = self._timed_verify(raw, self.off_path_stats)
            self._remember(tx.tx_hash, TxMetadata(k_tx, verified))
            with self._lock:
                self.preverified += 1
            span.set("outcome", "ok" if verified else "invalid signature")
        return verified

    def process(self, sk_tx: KeyPair, tx: Transaction) -> ProcessedTx:
        """Admit a transaction for execution (steps C2–C4)."""
        if not tx.is_confidential:
            raise ProtocolError("pre-processor handles confidential transactions")
        with get_tracer().span("preprocess.process",
                               payload_bytes=len(tx.payload)) as span:
            with self._lock:
                meta = self._cache.get(tx.tx_hash)
                if meta is not None:
                    self.cache_hits += 1
                else:
                    self.cache_misses += 1
            if meta is not None:
                span.set("outcome", "cache hit")
                with get_tracer().span("protocol.tx_decrypt", phase="body"):
                    started = time.perf_counter()
                    raw = t_protocol.open_body(
                        meta.k_tx, t_protocol.envelope_body(tx.payload)
                    )
                    self._stats.record(TX_DECRYPT, time.perf_counter() - started)
                return ProcessedTx(raw, meta.k_tx, meta.f_verified, cache_hit=True)
            span.set("outcome", "cache miss")
            k_tx, raw = self._full_open(sk_tx, tx.payload, self._stats)
            verified = self._timed_verify(raw, self._stats)
            self._remember(tx.tx_hash, TxMetadata(k_tx, verified))
            return ProcessedTx(raw, k_tx, verified, cache_hit=False)

    def _remember(self, tx_hash: bytes, meta: TxMetadata) -> None:
        with self._lock:
            self._cache[tx_hash] = meta
            self._cache.move_to_end(tx_hash)
            while len(self._cache) > self._capacity:
                self._cache.popitem(last=False)

    def _full_open(
        self, sk_tx: KeyPair, envelope: bytes, stats: OperationStats
    ) -> tuple[bytes, RawTransaction]:
        with get_tracer().span("protocol.tx_decrypt", phase="envelope"):
            started = time.perf_counter()
            k_tx, body = t_protocol.open_envelope_key(sk_tx, envelope)
            raw = t_protocol.open_body(k_tx, body)
            stats.record(TX_DECRYPT, time.perf_counter() - started)
        return k_tx, raw

    def _timed_verify(self, raw: RawTransaction, stats: OperationStats) -> bool:
        with get_tracer().span("protocol.verify"):
            started = time.perf_counter()
            verified = raw.verify_signature()
            stats.record(TX_VERIFY, time.perf_counter() - started)
        return verified

    def lookup_key(self, tx_hash: bytes) -> bytes | None:
        """k_tx for a processed transaction (authorization chain code)."""
        with self._lock:
            meta = self._cache.get(tx_hash)
        return meta.k_tx if meta else None

    def evict(self, tx_hash: bytes) -> None:
        with self._lock:
            self._cache.pop(tx_hash, None)

    def __len__(self) -> int:
        return len(self._cache)
