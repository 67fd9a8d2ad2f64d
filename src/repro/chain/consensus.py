"""PBFT-style ordering consensus simulator.

CONFIDE's platform reaches *order* consensus before execution (§3.1), so
what matters for throughput is the ordering round latency.  The
simulator computes one round of the classic three-phase protocol over
the zoned network model:

1. **pre-prepare** — the leader sends the block to every replica;
2. **prepare**     — every replica broadcasts a prepare; a replica is
   *prepared* once it holds 2f+1 matching prepares;
3. **commit**      — every prepared replica broadcasts a commit; the
   block is ordered at a replica once it holds 2f+1 commits.

Message timing accounts for per-node uplink serialization (a node
sending to n-1 peers queues those sends), which is what reproduces the
paper's two-zone degradation as node count grows (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.network import NetworkModel
from repro.errors import ChainError
from repro.obs.trace import get_tracer

_PHASE_MSG_BYTES = 192  # header hash + signature + view metadata


@dataclass(frozen=True)
class RoundReport:
    """Latency breakdown of one ordering round."""

    preprepare_s: float
    prepared_s: float
    committed_s: float

    @property
    def total_s(self) -> float:
        return self.committed_s


class PBFTOrderer:
    """Simulates ordering rounds for a fixed membership."""

    def __init__(self, zones: list[int], model: NetworkModel, leader: int = 0):
        if len(zones) < 4:
            raise ChainError("PBFT needs at least 4 nodes (f >= 1)")
        self.zones = list(zones)
        self.model = model
        self.leader = leader
        self.n = len(zones)
        self.f = (self.n - 1) // 3
        self.quorum = 2 * self.f + 1

    def _broadcast_arrivals(
        self, sender: int, send_start: float, msg_bytes: int
    ) -> list[float]:
        """Arrival time at each node of a broadcast from `sender`.

        The sender's uplink serializes the n-1 transmissions (nearest
        zones first, a reasonable scheduler); self-delivery is free.
        """
        order = sorted(
            (i for i in range(self.n) if i != sender),
            key=lambda i: self.model.latency(self.zones[sender], self.zones[i]),
        )
        arrivals = [0.0] * self.n
        arrivals[sender] = send_start
        clock = send_start
        for receiver in order:
            clock += self.model.transfer_time(
                self.zones[sender], self.zones[receiver], msg_bytes
            )
            arrivals[receiver] = clock + self.model.latency(
                self.zones[sender], self.zones[receiver]
            )
        return arrivals

    @staticmethod
    def _quorum_time(times: list[float], quorum: int) -> float:
        return sorted(times)[quorum - 1]

    def round_latency(self, block_bytes: int) -> RoundReport:
        """Latency of ordering one block of the given size."""
        with get_tracer().span("consensus.round", block_bytes=block_bytes,
                               nodes=self.n) as span:
            report = self._round_latency(block_bytes)
            span.set("ordered_s", report.committed_s)
        return report

    def _round_latency(self, block_bytes: int) -> RoundReport:
        preprepare = self._broadcast_arrivals(self.leader, 0.0, block_bytes)
        prepare_arrivals = [
            self._broadcast_arrivals(i, preprepare[i], _PHASE_MSG_BYTES)
            for i in range(self.n)
        ]
        prepared = [
            self._quorum_time(
                [prepare_arrivals[j][i] for j in range(self.n)], self.quorum
            )
            for i in range(self.n)
        ]
        commit_arrivals = [
            self._broadcast_arrivals(i, prepared[i], _PHASE_MSG_BYTES)
            for i in range(self.n)
        ]
        committed = [
            self._quorum_time(
                [commit_arrivals[j][i] for j in range(self.n)], self.quorum
            )
            for i in range(self.n)
        ]
        return RoundReport(
            preprepare_s=self._quorum_time(preprepare, self.quorum),
            prepared_s=self._quorum_time(prepared, self.quorum),
            committed_s=self._quorum_time(committed, self.quorum),
        )

    def pipelined_block_interval(self, block_bytes: int) -> float:
        """Per-block busy time of the ordering pipeline's bottleneck.

        Consecutive blocks pipeline through the three phases, so
        steady-state ordering throughput is bounded by *bandwidth*, not
        round latency: the leader's uplink must ship the block to every
        replica, and all cross-zone traffic (pre-prepare copies plus the
        all-to-all prepare/commit messages) shares one inter-zone pipe.
        Returns seconds of pipe time consumed per block.
        """
        with get_tracer().span("consensus.pipeline", block_bytes=block_bytes,
                               nodes=self.n) as span:
            interval = self._pipelined_block_interval(block_bytes)
            span.set("interval_s", interval)
        return interval

    def _pipelined_block_interval(self, block_bytes: int) -> float:
        zones = self.zones
        leader_zone = zones[self.leader]
        # Leader uplink: n-1 block copies.
        leader_bytes = block_bytes * (self.n - 1)
        leader_time = leader_bytes * 8.0 / self.model.intra_zone_bandwidth_bps
        # Cross-zone traffic on the shared WAN pipe.
        cross_pairs = 0
        cross_preprepare = 0
        for i in range(self.n):
            if i != self.leader and zones[i] != leader_zone:
                cross_preprepare += 1
            for j in range(self.n):
                if i != j and zones[i] != zones[j]:
                    cross_pairs += 1
        wan_bytes = (
            cross_preprepare * block_bytes
            + 2 * cross_pairs * _PHASE_MSG_BYTES  # prepare + commit phases
        )
        wan_time = wan_bytes * 8.0 / self.model.inter_zone_bandwidth_bps
        return max(leader_time, wan_time)

    def verify_state_roots(self, roots: list[bytes]) -> bytes:
        """Replica agreement on the post-state: at least 2f+1 identical
        roots are required (state continuity, §3.3)."""
        counts: dict[bytes, int] = {}
        for root in roots:
            counts[root] = counts.get(root, 0) + 1
        best_root, best = max(counts.items(), key=lambda kv: kv[1])
        if best < self.quorum:
            raise ChainError(
                f"state divergence: best root has {best} votes < quorum {self.quorum}"
            )
        return best_root
