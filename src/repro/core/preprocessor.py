"""Transaction pre-processor (paper §5.2).

Two expensive operations dominate confidential-transaction admission:
private-key envelope decryption and signature verification.  Both can
run *before* consensus, in parallel, while transactions sit in the
unverified pool; the recovered metadata — ``(tx hash, k_tx,
f_verified)`` — is cached inside the CS enclave.

At execution time the cached metadata, when there is any, spares both
(steps C2–C3 in Figure 7): only the cheap symmetric decryption remains;
on a miss the transaction takes the full path.

Pre-verification has one path: a batch crosses into the CS enclave in
one ecall (step P1) and each transaction is opened and verified there
(steps P2–P4).  :class:`PreProcessor` holds neither a key nor the
cache: the enclave's runtime passes ``sk_tx`` and the cached entry in
and keeps the metadata it returns.  What the pre-processor keeps are
the host-readable ledgers — its timings and its hit, miss and
pre-verified counts.
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
    """The pre-processor's code and its host-side ledgers."""

    def __init__(self, stats: OperationStats | None = None):
        self.stats = stats or OperationStats()
        # Pre-verification happens off the execution path (pre-consensus,
        # parallelizable), so its costs are ledgered separately and never
        # show up in the Table 1 execution profile.
        self.off_path_stats = OperationStats()
        # The gateway reaches the engine from more than one thread.
        self._lock = threading.Lock()
        self.preverified = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def preverify(self, sk_tx: KeyPair, tx: Transaction) -> TxMetadata:
        """Full decrypt + verify (steps P2–P4); returns what to cache."""
        if not tx.is_confidential:
            raise ProtocolError("pre-verification is for confidential transactions")
        with get_tracer().span("preprocess.preverify",
                               payload_bytes=len(tx.payload)) as span:
            k_tx, raw = self._full_open(sk_tx, tx.payload, self.off_path_stats)
            verified = self._timed_verify(raw, self.off_path_stats)
            with self._lock:
                self.preverified += 1
            span.set("outcome", "ok" if verified else "invalid signature")
        return TxMetadata(k_tx, verified)

    def process(self, sk_tx: KeyPair, tx: Transaction,
                cached: TxMetadata | None) -> ProcessedTx:
        """Admit a transaction for execution (steps C2–C4), opening only
        its body when ``cached`` holds its pre-verified metadata."""
        if not tx.is_confidential:
            raise ProtocolError("pre-processor handles confidential transactions")
        with get_tracer().span("preprocess.process",
                               payload_bytes=len(tx.payload)) as span:
            with self._lock:
                if cached is not None:
                    self.cache_hits += 1
                else:
                    self.cache_misses += 1
            if cached is not None:
                span.set("outcome", "cache hit")
                with get_tracer().span("protocol.tx_decrypt", phase="body"):
                    started = time.perf_counter()
                    raw = t_protocol.open_body(
                        cached.k_tx, t_protocol.envelope_body(tx.payload)
                    )
                    self.stats.record(TX_DECRYPT, time.perf_counter() - started)
                return ProcessedTx(raw, cached.k_tx, cached.f_verified,
                                   cache_hit=True)
            span.set("outcome", "cache miss")
            k_tx, raw = self._full_open(sk_tx, tx.payload, self.stats)
            verified = self._timed_verify(raw, self.stats)
            return ProcessedTx(raw, k_tx, verified, cache_hit=False)

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
