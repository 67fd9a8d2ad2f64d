"""Transaction pools (Figure 7).

Incoming transactions — valid or not — land in the *unverified pool*;
the pre-verification phase (parallelizable, §5.2) moves the valid ones
to the *verified pool*, from which the proposer drafts blocks.

The pool sits on the ingest hot path, so it never raises for expected
conditions: a full pool or an oversized transaction is a *drop*,
reported through the return value and surfaced as counters
(``confide_txpool_rejected_total`` / ``confide_txpool_oversized_total``
on the metrics page).  All operations are thread-safe — the
serving gateway's request threads feed the unverified pool while the
block producer pre-verifies and drafts from the pools.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.chain.transaction import Transaction


class TxPool:
    """FIFO pool with hash-based deduplication."""

    def __init__(self, capacity: int = 100_000):
        self._txs: OrderedDict[bytes, Transaction] = OrderedDict()
        self._capacity = capacity
        self._lock = threading.Lock()
        # Cumulative counters (exported by repro.obs.metrics).
        self.rejected_full = 0
        self.dropped_oversized = 0
        self.accepted_total = 0
        self.depth_peak = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def add(self, tx: Transaction) -> bool:
        """Insert; returns False when the tx is a duplicate or the pool
        is full.  A full pool is backpressure, not an error — callers on
        the ingest path must not pay for an exception per drop."""
        with self._lock:
            if tx.tx_hash in self._txs:
                return False
            if len(self._txs) >= self._capacity:
                self.rejected_full += 1
                return False
            self._txs[tx.tx_hash] = tx
            self.accepted_total += 1
            if len(self._txs) > self.depth_peak:
                self.depth_peak = len(self._txs)
            return True

    def pop_batch(self, max_count: int | None = None,
                  max_bytes: int | None = None) -> list[Transaction]:
        """Remove and return the oldest transactions, bounded by count
        and/or total encoded size (the paper's 4 KB block budget).

        A transaction whose encoded size alone exceeds ``max_bytes`` can
        never be drafted within the budget; it is dropped from the pool
        (counted in :attr:`dropped_oversized`) rather than admitted over
        budget or left to clog the queue head forever.
        """
        batch: list[Transaction] = []
        size = 0
        with self._lock:
            while self._txs:
                if max_count is not None and len(batch) >= max_count:
                    break
                tx_hash, tx = next(iter(self._txs.items()))
                tx_size = tx.wire_size
                if max_bytes is not None and tx_size > max_bytes:
                    del self._txs[tx_hash]
                    self.dropped_oversized += 1
                    continue
                if max_bytes is not None and size + tx_size > max_bytes:
                    break
                del self._txs[tx_hash]
                batch.append(tx)
                size += tx_size
        return batch

    def remove(self, tx_hash: bytes) -> None:
        with self._lock:
            self._txs.pop(tx_hash, None)

    def __len__(self) -> int:
        # Reading the OrderedDict while add/pop_batch mutate it can blow
        # up with "dictionary changed size during iteration" under free
        # concurrency — size/membership take the lock like every writer.
        with self._lock:
            return len(self._txs)

    def __contains__(self, tx_hash: bytes) -> bool:
        with self._lock:
            return tx_hash in self._txs
