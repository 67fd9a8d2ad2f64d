"""Closed-loop block production driver.

§6.4 describes the production ABS service: "transactions are submitted
in batch by the application into the blockchain network. The time
duration of blocks execution is about 30 ms on average. Periodically,
empty blocks are generated continuously with about 5ms duration."

This driver reproduces that operating mode over simulated time: clients
inject transactions at a configurable rate, the leader cuts a block
every ``block_interval_s`` (empty if the pool is dry), pre-verification
runs pipelined ahead of consensus (modeled k-way parallel, §5.2), the
ordering round comes from the PBFT model, and execution/commit costs are
*measured* on a real node.  The result is a per-block trace plus
latency/throughput summaries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.chain.consensus import PBFTOrderer
from repro.chain.node import Node
from repro.chain.transaction import Transaction
from repro.errors import ChainError
from repro.obs.trace import get_tracer


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile over an unsorted sample (0 when empty).

    Shared by the driver report and the serving load generator so the
    p50/p95/p99 columns in BENCH_chain.json and BENCH_serving.json mean
    the same thing.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(int(q * len(ordered)), len(ordered) - 1)
    return ordered[index]


@dataclass(frozen=True)
class FaultWindow:
    """Nodes crashed during [start_s, end_s) of simulated time."""

    start_s: float
    end_s: float
    nodes: frozenset[int]

    def active_at(self, clock_s: float) -> bool:
        return self.start_s <= clock_s < self.end_s


@dataclass(frozen=True)
class BlockTrace:
    """One produced block in the simulation."""

    height: int
    num_txs: int
    block_bytes: int
    exec_s: float
    order_s: float
    write_s: float
    committed_at_s: float
    faulty_nodes: int = 0
    view_changed: bool = False

    @property
    def is_empty(self) -> bool:
        return self.num_txs == 0


@dataclass
class DriverReport:
    """Outcome of a closed-loop run."""

    blocks: list[BlockTrace] = field(default_factory=list)
    tx_latencies_s: list[float] = field(default_factory=list)
    duration_s: float = 0.0
    injected: int = 0
    committed: int = 0

    @property
    def tps(self) -> float:
        return self.committed / self.duration_s if self.duration_s else 0.0

    @property
    def empty_block_fraction(self) -> float:
        if not self.blocks:
            return 0.0
        return sum(1 for b in self.blocks if b.is_empty) / len(self.blocks)

    @property
    def mean_exec_ms(self) -> float:
        busy = [b.exec_s for b in self.blocks if not b.is_empty]
        return sum(busy) / len(busy) * 1000 if busy else 0.0

    @property
    def mean_empty_ms(self) -> float:
        empty = [b.exec_s + b.write_s for b in self.blocks if b.is_empty]
        return sum(empty) / len(empty) * 1000 if empty else 0.0

    def latency_percentile(self, q: float) -> float:
        return percentile(self.tx_latencies_s, q)


class ClosedLoopDriver:
    """Drives one node as the consortium's leader over simulated time.

    ``tx_source(i)`` builds the i-th injected transaction (already
    sealed/signed).  Execution and block-write are measured wall-clock on
    the node and fed back into the simulated clock; ordering latency
    comes from the PBFT model for the configured membership.
    """

    def __init__(
        self,
        node: Node,
        orderer: PBFTOrderer,
        tx_source,
        arrival_rate_per_s: float,
        block_interval_s: float = 0.030,
        max_block_bytes: int = 4096,
        preverify_lanes: int = 4,
        fault_windows: list[FaultWindow] | None = None,
    ):
        if arrival_rate_per_s < 0:
            raise ChainError("arrival rate must be non-negative")
        self.node = node
        self.orderer = orderer
        self.tx_source = tx_source
        self.arrival_rate = arrival_rate_per_s
        self.block_interval_s = block_interval_s
        self.max_block_bytes = max_block_bytes
        self.preverify_lanes = max(1, preverify_lanes)
        self.fault_windows = list(fault_windows or [])

    def _faulty_at(self, clock_s: float) -> frozenset[int]:
        faulty: set[int] = set()
        for window in self.fault_windows:
            if window.active_at(clock_s):
                faulty |= window.nodes
        return frozenset(faulty)

    def _order_block(self, block_bytes: int,
                     faulty: frozenset[int]) -> tuple[float, bool]:
        """Ordering latency for one block under the current fault set.

        Crash faults slow the round (quorums wait on farther replicas);
        a crashed *leader* additionally costs a view change, after which
        the next replica leads the round.  Returns (seconds, view_changed).
        """
        order_s = self.orderer.pipelined_block_interval(block_bytes)
        if not faulty:
            return order_s, False
        orderer = self.orderer
        extra_s = 0.0
        view_changed = False
        if orderer.leader in faulty:
            view_changed = True
            extra_s = orderer.view_change_latency()
            orderer = PBFTOrderer(
                orderer.zones, orderer.model,
                leader=(orderer.leader + 1) % orderer.n,
            )
            if orderer.leader in faulty:
                raise ChainError("consecutive leaders faulty; no liveness")
        round_report = orderer.round_latency(block_bytes, faulty)
        return max(order_s, round_report.total_s) + extra_s, view_changed

    def run(self, sim_seconds: float) -> DriverReport:
        report = DriverReport(duration_s=sim_seconds)
        arrivals: list[tuple[float, Transaction]] = []
        if self.arrival_rate > 0:
            interval = 1.0 / self.arrival_rate
            t = 0.0
            index = 0
            while t < sim_seconds:
                tx = self.tx_source(index)
                if tx is None:
                    break
                arrivals.append((t, tx))
                index += 1
                t += interval
        report.injected = len(arrivals)

        arrival_times: dict[bytes, float] = {}
        next_arrival = 0
        clock = 0.0
        while clock < sim_seconds:
            # Deliver everything that arrived before this block slot.
            delivered = False
            while next_arrival < len(arrivals) and arrivals[next_arrival][0] <= clock:
                arrived_at, tx = arrivals[next_arrival]
                self.node.receive_transaction(tx)
                arrival_times[tx.tx_hash] = arrived_at
                next_arrival += 1
                delivered = True
            if delivered:
                # Pre-verification happens in the pipeline gap before
                # ordering (off the critical path, exactly the point of
                # §5.2).  Only transactions that actually pass reach the
                # verified pool — a failed verdict must not smuggle a bad
                # transaction into a block.
                self.node.preverify_pending()

            batch = self.node.draft_block(max_bytes=self.max_block_bytes)
            faulty = self._faulty_at(clock)
            with get_tracer().span("chain.block", num_txs=len(batch)) as span:
                started = time.perf_counter()
                applied = self.node.apply_transactions(batch)
                _ = time.perf_counter() - started
                order_s, view_changed = self._order_block(
                    applied.block.byte_size, faulty
                )
                span.set("height", applied.block.header.height)
                span.set("block_bytes", applied.block.byte_size)
                span.set("order_s", order_s)
            exec_s = applied.exec_seconds
            write_s = applied.write_seconds
            commit_time = clock + max(exec_s, order_s) + write_s
            report.blocks.append(
                BlockTrace(
                    height=applied.block.header.height,
                    num_txs=len(batch),
                    block_bytes=applied.block.byte_size,
                    exec_s=exec_s,
                    order_s=order_s,
                    write_s=write_s,
                    committed_at_s=commit_time,
                    faulty_nodes=len(faulty),
                    view_changed=view_changed,
                )
            )
            for tx in batch:
                report.committed += 1
                arrived_at = arrival_times.pop(tx.tx_hash, clock)
                report.tx_latencies_s.append(commit_time - arrived_at)
            # Next slot: blocks are cut on the interval, or immediately
            # after a slow block finishes.
            clock += max(self.block_interval_s, exec_s + write_s)
        return report
