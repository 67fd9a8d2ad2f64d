"""Sustained-load generator for the serving gateway.

Thousands of simulated clients drive the *real* gateway code path —
JSON parsing, rate limiting, admission, block production, receipt
lookup — over the traffic model of :class:`TrafficMix`, but time is a
seeded discrete-event clock.  Arrivals come from a ``random.Random``;
blocks are cut at fixed virtual intervals; a committed transaction's
modeled latency is ``block-cut time + the PBFT ordering model's round
latency − arrival time``.  Nothing in the summary depends on the wall
clock, so a fixed seed reproduces BENCH_serving.json's summary
byte-for-byte — the determinism gate CI holds the serving path to.

Every response body is byte-scanned for the traffic mix's canary
plaintext; any hit raises :class:`InvariantViolation` — a gateway
response must never contain confidential payload bytes.
"""

from __future__ import annotations

import heapq
import json
import random
import time
from dataclasses import dataclass, field

from repro.chain.consensus import PBFTOrderer
from repro.chain.network import NetworkModel
from repro.chain.node import Node
from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.k_protocol import bootstrap_founder
from repro.errors import InvariantViolation, ReproError
from repro.serve import jsonrpc
from repro.serve.gateway import Gateway, GatewayConfig
from repro.sim.invariants import ConfidentialityChecker
from repro.workloads.mix import DEFAULT_WEIGHTS, TrafficMix

_SETUP_ROUNDS = 64


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile over an unsorted sample (0 when empty).

    Defines the p50/p95/p99 columns of BENCH_serving.json.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(int(q * len(ordered)), len(ordered) - 1)
    return ordered[index]


@dataclass(frozen=True)
class LoadConfig:
    """Knobs for one load run (CLI: ``repro loadtest``)."""

    clients: int = 1000
    requests_per_client: int = 3
    seed: int = 0
    mode: str = "open"  # "open" (rate-driven) | "closed" (think-time)
    arrival_rate_rps: float = 2500.0  # open loop: aggregate arrivals
    think_time_s: float = 0.4  # closed loop: mean per-client gap
    block_interval_s: float = 0.030
    max_block_bytes: int = 1 << 14
    mempool_capacity: int = 512  # small enough to demonstrate backpressure
    rate_per_s: float = 0.0  # per-client gateway rate limit (0 = off)
    burst: float = 20.0
    weights: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_WEIGHTS)
    )

    def __post_init__(self) -> None:
        # A non-positive interval or rate would spin the block clock
        # forever or divide by zero deep inside the run; refuse it here.
        checks = (
            (self.clients >= 1, "clients must be >= 1"),
            (self.requests_per_client >= 1, "requests must be >= 1"),
            (self.arrival_rate_rps > 0, "arrival rate must be > 0"),
            (self.think_time_s > 0, "think time must be > 0"),
            (self.block_interval_s > 0, "block interval must be > 0"),
            (self.max_block_bytes > 0, "max block bytes must be > 0"),
            (self.mempool_capacity >= 1, "mempool capacity must be >= 1"),
            (self.rate_per_s >= 0, "rate must be >= 0"),
            (self.burst > 0, "burst must be > 0"),
            (self.mode in ("open", "closed"),
             f"unknown load mode '{self.mode}'"),
        )
        for ok, message in checks:
            if not ok:
                raise ReproError(f"invalid load config: {message}")

    def to_dict(self) -> dict:
        return {
            "clients": self.clients,
            "requests_per_client": self.requests_per_client,
            "seed": self.seed,
            "mode": self.mode,
            "arrival_rate_rps": self.arrival_rate_rps,
            "think_time_s": self.think_time_s,
            "block_interval_s": self.block_interval_s,
            "max_block_bytes": self.max_block_bytes,
            "mempool_capacity": self.mempool_capacity,
            "rate_per_s": self.rate_per_s,
            "burst": self.burst,
            "weights": dict(sorted(self.weights.items())),
        }


@dataclass
class LoadReport:
    """Outcome of a load run; ``summary()`` is the deterministic part."""

    clients: int = 0
    requests_by_workload: dict[str, int] = field(default_factory=dict)
    submitted: int = 0
    accepted: int = 0
    committed: int = 0
    backpressure: int = 0
    duplicates: int = 0
    rate_limited: int = 0
    errors_by_kind: dict[str, int] = field(default_factory=dict)
    modeled_latencies_s: list[float] = field(default_factory=list)
    blocks: int = 0
    modeled_duration_s: float = 0.0
    canary_scans: int = 0
    wall_seconds: float = 0.0

    @property
    def modeled_latency_quantiles_s(self) -> dict[str, float]:
        return {
            "p50": percentile(self.modeled_latencies_s, 0.50),
            "p95": percentile(self.modeled_latencies_s, 0.95),
            "p99": percentile(self.modeled_latencies_s, 0.99),
        }

    def summary(self) -> dict:
        """Deterministic summary: fixed seed → byte-identical dict."""
        quantiles = {
            name: round(value, 6)
            for name, value in self.modeled_latency_quantiles_s.items()
        }
        return {
            "clients": self.clients,
            "requests_by_workload": dict(
                sorted(self.requests_by_workload.items())
            ),
            "submitted": self.submitted,
            "accepted": self.accepted,
            "committed": self.committed,
            "backpressure": self.backpressure,
            "duplicates": self.duplicates,
            "rate_limited": self.rate_limited,
            "errors_by_kind": dict(sorted(self.errors_by_kind.items())),
            "modeled_latency_s": quantiles,
            "blocks": self.blocks,
            "modeled_duration_s": round(self.modeled_duration_s, 6),
            "canary_scans": self.canary_scans,
            "canary_hits": 0,  # a hit raises before any report exists
        }

    def to_dict(self, include_timing: bool = False) -> dict:
        document = self.summary()
        if include_timing:
            document["timing"] = {"wall_seconds": round(self.wall_seconds, 3)}
        return document

    def count_request(self, workload: str) -> None:
        self.requests_by_workload[workload] = (
            self.requests_by_workload.get(workload, 0) + 1
        )

    def count_error(self, kind: str) -> None:
        self.errors_by_kind[kind] = self.errors_by_kind.get(kind, 0) + 1


def _error_kind(code: int) -> str:
    name = jsonrpc.ERROR_NAMES.get(code, "unknown")
    return name.replace(" ", "_")


class VirtualTimeLoad:
    """Discrete-event load run over an in-process gateway."""

    def __init__(self, config: LoadConfig,
                 engine_config: EngineConfig = DEFAULT_CONFIG):
        self.config = config
        self._now = 0.0
        self.node = Node(
            0, config=engine_config,
            mempool_capacity=config.mempool_capacity,
        )
        bootstrap_founder(self.node.confidential.km)
        self.node.confidential.provision_from_km()
        self.gateway = Gateway(
            self.node,
            GatewayConfig(
                rate_per_s=config.rate_per_s,
                burst=config.burst,
                block_interval_s=config.block_interval_s,
                max_block_bytes=config.max_block_bytes,
                # Provisioning and the receipt-conservation sweep are
                # operator traffic, outside the per-client budget.
                unlimited_clients=("setup", "auditor"),
            ),
            clock=lambda: self._now,
        )
        self.mix = TrafficMix(
            self.node.pk_tx, seed=config.seed, weights=dict(config.weights)
        )
        self.checker = ConfidentialityChecker(self.mix.canary_needles)
        # The paper's 4-node, 2-zone deployment provides the ordering
        # latency model; execution runs on the one real node.
        self.orderer = PBFTOrderer([0, 0, 1, 1], NetworkModel())
        self.report = LoadReport(clients=config.clients)
        self._submit_time: dict[bytes, float] = {}
        self._commit_time: dict[bytes, float] = {}
        self._accepted: list[bytes] = []
        self._rejected: list[bytes] = []
        self._next_block = config.block_interval_s
        self._traffic_start = 0.0

    # -- plumbing ----------------------------------------------------------

    def _rpc(self, method: str, params: dict, client: str) -> dict:
        body = json.dumps({
            "jsonrpc": "2.0", "id": 1, "method": method, "params": params,
        }).encode()
        response_bytes = self.gateway.handle_raw(body, client)
        self.checker.scan_wire(response_bytes, f"gateway response {method}")
        self.report.canary_scans += 1
        return json.loads(response_bytes)

    def _cut_block(self, at_time: float) -> None:
        self._now = at_time
        applied = self.gateway.produce_block()
        if applied is None:
            return
        self.report.blocks += 1
        transactions = applied.block.transactions
        block_bytes = sum(tx.wire_size for tx in transactions)
        # Commit latency is fully modeled: the cut instant plus the PBFT
        # ordering round for a block of this size.  Measured execution
        # seconds never enter virtual time (they would break the
        # fixed-seed byte-identical summary).
        commit_at = at_time + self.orderer.round_latency(
            block_bytes or 1
        ).committed_s
        for tx in transactions:
            self._commit_time[tx.tx_hash] = commit_at
        for blob in self.node.receipt_blobs_at(applied.block.header.height):
            self.checker.scan_blobs([blob], "committed receipt blob")
            self.report.canary_scans += 1

    def _advance_blocks(self, up_to: float) -> None:
        while self._next_block <= up_to:
            self._cut_block(self._next_block)
            self._next_block += self.config.block_interval_s

    def _submit(self, workload: str, tx, client: str) -> None:
        self.report.count_request(workload)
        self.report.submitted += 1
        response = self._rpc(
            "submit_tx", {"tx": tx.encode().hex()}, client
        )
        error = response.get("error")
        if error is None:
            result = response["result"]
            if result.get("duplicate"):
                self.report.duplicates += 1
            else:
                self.report.accepted += 1
                self._accepted.append(tx.tx_hash)
                self._submit_time[tx.tx_hash] = self._now
            return
        code = error["code"]
        if code == jsonrpc.BACKPRESSURE:
            self.report.backpressure += 1
            self._rejected.append(tx.tx_hash)
        elif code == jsonrpc.RATE_LIMITED:
            self.report.rate_limited += 1
            self._rejected.append(tx.tx_hash)
        else:
            self.report.count_error(_error_kind(code))

    # -- phases ------------------------------------------------------------

    def _run_setup(self) -> None:
        """Deploy + wire the contract suite through the gateway itself.

        Setup traffic is counted per workload but kept out of the
        submitted/accepted/latency books — the benchmark measures the
        steady state, not the one-time provisioning burst.
        """
        for request in (self.mix.deploy_transactions()
                        + self.mix.setup_transactions()):
            self.report.count_request(request.workload)
            response = self._rpc(
                "submit_tx", {"tx": request.tx.encode().hex()}, "setup"
            )
            if "error" in response:
                raise ReproError(
                    f"setup transaction refused: {response['error']}"
                )
            # Deploys and setup calls are order-dependent (a setup call
            # targets the contract the previous deploy created), so each
            # gets its own block before the next is submitted.
            self._advance_blocks(self._next_block)
            if request.tx.tx_hash not in self._commit_time:
                raise ReproError("setup transaction did not commit")

    def _arrival_schedule(self) -> list[tuple[float, int, int]]:
        """(time, seq, client) arrivals, fully determined by the seed."""
        rng = random.Random(f"arrivals-{self.config.seed}")
        total = self.config.clients * self.config.requests_per_client
        events: list[tuple[float, int, int]] = []
        if self.config.mode == "open":
            now = 0.0
            for seq in range(total):
                now += rng.expovariate(self.config.arrival_rate_rps)
                events.append((now, seq, rng.randrange(self.config.clients)))
        else:  # "closed"; LoadConfig refuses any other mode
            seq = 0
            for client in range(self.config.clients):
                now = rng.uniform(0, self.config.think_time_s)
                for _ in range(self.config.requests_per_client):
                    events.append((now, seq, client))
                    seq += 1
                    now += rng.expovariate(1.0 / self.config.think_time_s)
            heapq.heapify(events)
            events = [heapq.heappop(events) for _ in range(len(events))]
        return events

    def _run_traffic(self) -> None:
        # Arrivals start at the first block boundary after setup, so the
        # virtual clock never runs backwards and setup time stays out of
        # the measured window.
        self._traffic_start = self._next_block
        for at_time, _seq, client in self._arrival_schedule():
            arrival = self._traffic_start + at_time
            self._advance_blocks(arrival)
            self._now = arrival
            request = self.mix.next_request()
            self._submit(request.workload, request.tx, f"client-{client}")
        # Drain: keep the producer beating until the pools are empty.
        for _ in range(_SETUP_ROUNDS * 16):
            if not (len(self.node.unverified) or len(self.node.verified)):
                break
            self._advance_blocks(self._next_block)
        if len(self.node.unverified) or len(self.node.verified):
            raise ReproError("load run did not drain the mempool")

    def _run_queries(self) -> None:
        """Receipt sweep: conservation check + latency accounting."""
        for tx_hash in self._accepted:
            self.report.count_request("query")
            response = self._rpc(
                "get_receipt", {"tx_hash": tx_hash.hex()}, "auditor"
            )
            result = response.get("result")
            if result is None or not result.get("found"):
                raise InvariantViolation(
                    f"accepted tx {tx_hash.hex()[:16]} has no receipt"
                )
            commit_at = self._commit_time.get(tx_hash)
            if commit_at is None:
                raise InvariantViolation(
                    f"accepted tx {tx_hash.hex()[:16]} never committed"
                )
            self.report.committed += 1
            self.report.modeled_latencies_s.append(
                commit_at - self._submit_time[tx_hash]
            )
        for tx_hash in self._rejected:
            self.report.count_request("query")
            response = self._rpc(
                "get_receipt", {"tx_hash": tx_hash.hex()}, "auditor"
            )
            result = response.get("result")
            if result is not None and result.get("found"):
                raise InvariantViolation(
                    f"rejected tx {tx_hash.hex()[:16]} acquired a receipt"
                )
        for method in ("node_status", "chain_status"):
            self.report.count_request("query")
            response = self._rpc(method, {}, "auditor")
            if "error" in response:
                raise ReproError(f"{method} failed: {response['error']}")

    def run(self) -> LoadReport:
        wall_started = time.perf_counter()
        try:
            self._run_setup()
            self._run_traffic()
            self._run_queries()
            # The mempool is drained, so every canary planted into the
            # replicated store must be sealed: scan the KV store too.
            self.checker.scan_kv(self.node.node_id, self.node.kv)
            end = max([self._now] + list(self._commit_time.values()))
            self.report.modeled_duration_s = end - self._traffic_start
            self.report.wall_seconds = time.perf_counter() - wall_started
            return self.report
        finally:
            self.gateway.close()


def run_virtual_load(
    config: LoadConfig,
    engine_config: EngineConfig = DEFAULT_CONFIG,
) -> LoadReport:
    """One seeded in-process load run (the BENCH_serving path)."""
    return VirtualTimeLoad(config, engine_config).run()


def write_bench(path: str, config: LoadConfig, report: LoadReport) -> dict:
    """Write BENCH_serving.json: deterministic summary + wall timing."""
    document = {
        "config": config.to_dict(),
        "summary": report.summary(),
        "timing": {"wall_seconds": round(report.wall_seconds, 3)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return document
