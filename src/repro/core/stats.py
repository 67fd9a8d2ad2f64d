"""Per-operation timing statistics (the data behind Table 1).

The engines record wall-clock durations and counts of the operations the
paper profiles for the SCF-AR workload: Contract Call, GetStorage,
SetStorage, Transaction Verify, Transaction Decryption.

``record`` is safe under concurrent engine use (pre-verification lanes
run off the execution path and may share a ledger), and
:meth:`OperationStats.snapshot` hands :mod:`repro.obs.metrics` a
consistent copy to export as ``confide_op_seconds_total`` and
``confide_op_count_total``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

CONTRACT_CALL = "Contract Call"
GET_STORAGE = "GetStorage"
SET_STORAGE = "SetStorage"
TX_VERIFY = "Transaction Verify"
TX_DECRYPT = "Transaction Decryption"

# Deploy-time static analysis (not part of Table 1: it runs once per
# deploy, off the per-transaction hot path).
ARTIFACT_VERIFY = "Artifact Verify"
TAINT_ANALYZE = "Taint Analysis"
BYTECODE_FLOW = "Bytecode Flow Analysis"
DEPLOY_REJECT = "Deploy Rejected"
# DEPLOY_REJECT stays the total; these two split it by which admission
# mode rejected: source present (Pass 1 saw the code) vs bytecode-only.
DEPLOY_REJECT_SOURCE = "Deploy Rejected: source+bytecode"
DEPLOY_REJECT_BYTECODE = "Deploy Rejected: bytecode-only"

TABLE1_ORDER = (CONTRACT_CALL, GET_STORAGE, SET_STORAGE, TX_VERIFY, TX_DECRYPT)


@dataclass
class OperationStats:
    """Accumulated (duration, count) per operation name."""

    durations: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record(self, op: str, seconds: float) -> None:
        with self._lock:
            self.durations[op] = self.durations.get(op, 0.0) + seconds
            self.counts[op] = self.counts.get(op, 0) + 1

    def count(self, op: str) -> int:
        return self.counts.get(op, 0)

    def duration_ms(self, op: str) -> float:
        return self.durations.get(op, 0.0) * 1000.0

    @property
    def total_seconds(self) -> float:
        return sum(self.durations.values())

    def ratio(self, op: str) -> float:
        total = self.total_seconds
        return self.durations.get(op, 0.0) / total if total else 0.0

    def reset(self) -> None:
        with self._lock:
            self.durations.clear()
            self.counts.clear()

    def snapshot(self) -> tuple[dict[str, float], dict[str, int]]:
        """Consistent (durations, counts) copy for the metrics export."""
        with self._lock:
            return dict(self.durations), dict(self.counts)
