"""Block executor: serial execution, and the modeled parallel-lane schedule.

Ant Blockchain "supports smart contract paralleled execution" (§6.2).
Transactions execute one after another in block order; the parallelism
the paper describes is *modeled* by ``lane_schedule``: list-scheduling
of the measured per-transaction durations onto k lanes under the
read/write-set conflict constraints (Fig. 11).  Real concurrent dispatch
cannot win here — the VM is pure Python under the GIL — so block
execution has exactly one path, and the per-block report carries only
measured figures (docs/parallelism.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.chain.transaction import Transaction
from repro.core.receipts import ANALYSIS_SOURCE_BYTECODE, KIND_ANALYSIS
from repro.errors import ChainError
from repro.obs.trace import get_tracer

if TYPE_CHECKING:  # imported lazily to avoid a chain <-> core import cycle
    from repro.core.engine import ConfidentialEngine, ExecutionOutcome, PublicEngine


@dataclass
class BlockExecutionReport:
    """Measured execution results for one block."""

    outcomes: list["ExecutionOutcome"] = field(default_factory=list)
    serial_duration_s: float = 0.0
    analysis_rejections: int = 0  # deploys refused by the static verifier
    # Split of analysis_rejections by admission mode: did the rejected
    # deploy carry source (Pass 1 ran) or was it bytecode-only (Pass 2+3
    # were the only line of defense)?
    analysis_rejections_source: int = 0
    analysis_rejections_bytecode_only: int = 0


def _conflicts(a: "ExecutionOutcome", b: "ExecutionOutcome") -> bool:
    return bool(
        a.write_set & b.write_set
        or a.write_set & b.read_set
        or a.read_set & b.write_set
    )


def lane_schedule(outcomes: list["ExecutionOutcome"], lanes: int) -> tuple[float, int]:
    """(makespan, conflict-edge count) of list-scheduling onto k lanes."""
    if lanes < 1:
        raise ChainError("need at least one execution lane")
    lane_free = [0.0] * lanes
    finish_times: list[float] = []
    conflict_edges = 0
    for index, outcome in enumerate(outcomes):
        ready = 0.0
        for prev_index in range(index):
            if _conflicts(outcomes[prev_index], outcome):
                conflict_edges += 1
                ready = max(ready, finish_times[prev_index])
        lane = min(range(lanes), key=lambda i: lane_free[i])
        start = max(lane_free[lane], ready)
        finish = start + outcome.duration
        lane_free[lane] = finish
        finish_times.append(finish)
    return (max(finish_times) if finish_times else 0.0), conflict_edges


class BlockExecutor:
    """Executes a block's transactions through the right engine."""

    def __init__(self, confidential: "ConfidentialEngine",
                 public: "PublicEngine"):
        self.confidential = confidential
        self.public = public

    def _execute(self, tx: Transaction) -> "ExecutionOutcome":
        engine = self.confidential if tx.is_confidential else self.public
        return engine.execute(tx)

    def execute_block(self, transactions: list[Transaction]) -> BlockExecutionReport:
        with get_tracer().span("block.execute", num_txs=len(transactions)):
            report = BlockExecutionReport()
            for tx in transactions:
                self._record(report, self._execute(tx))
        return report

    def _record(self, report: BlockExecutionReport,
                outcome: "ExecutionOutcome") -> None:
        report.outcomes.append(outcome)
        report.serial_duration_s += outcome.duration
        if outcome.receipt.kind == KIND_ANALYSIS:
            report.analysis_rejections += 1
            if outcome.receipt.analysis_mode == ANALYSIS_SOURCE_BYTECODE:
                report.analysis_rejections_source += 1
            else:
                report.analysis_rejections_bytecode_only += 1
