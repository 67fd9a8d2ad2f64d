"""The deterministic multi-node fault-injection simulation harness.

One :func:`run_sim` call stands up a full consortium (real nodes, real
enclaves, real K-Protocol key agreement), then drives it step by step
over simulated time: clients inject confidential transactions carrying a
seed-derived canary secret, each node admits them through its own
serving :class:`~repro.serve.gateway.Gateway`, leaders cut blocks with
that gateway on the paper's 30 ms cadence, proposals and sync traffic
flow through a fault-scheduling transport, and the injector crashes
nodes, cuts the network, tears down enclaves, and spikes EPC pressure —
all driven by **one** ``random.Random(seed)`` which is simultaneously
installed as the process-wide entropy source (:mod:`repro.crypto.entropy`),
so the entire run — every key, nonce, fault, and message delivery — is a
pure function of the seed.  No wall-clock value ever enters the simulated
path.

After every step the harness checks the safety, durability, and
confidentiality invariants (:mod:`repro.sim.invariants`).  A run ends
with a fault-free drain phase that cuts blocks until every pool is
empty; every node must then converge to the canonical chain with
byte-identical state roots, and every node's gateway must give the same
``get_receipt`` answer for every injected transaction: a receipt
exactly when some node accepted it and did not lose it in a crash.
"""

from __future__ import annotations

import json
import random
import tempfile
from dataclasses import dataclass, field, replace

from repro.chain.block import Block
from repro.chain.network import NetworkModel, zones_for
from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.crypto.ecc import decode_point
from repro.crypto.entropy import deterministic_entropy
from repro.errors import ChainError, InvariantViolation, ReproError
from repro.lang import compile_source
from repro.sim.cluster import SimCluster
from repro.sim.events import EventLog, SimResult
from repro.sim.faults import (
    CrashFault,
    EnclaveFault,
    EpcFault,
    FaultInjector,
    PartitionFault,
    SlowFault,
    parse_faults,
)
from repro.sim.invariants import (
    ConfidentialityChecker,
    SafetyChecker,
    check_epc_sanity,
    check_state_commitment,
)
from repro.sim.transport import SimTransport
from repro.workloads.clients import Client

# The workload contract: `put` stores the caller's (confidential) input
# under "secret"; `bump` keeps a counter so blocks always mutate state.
CANARY_CONTRACT_SOURCE = """
fn put() {
    let n = input_size();
    let buf = alloc(n);
    input_read(buf, 0, n);
    let key = "secret";
    storage_set(key, 6, buf, n);
    let out = alloc(8);
    store64(out, n);
    output(out, 8);
}
fn bump() {
    let key = "count";
    let buf = alloc(8);
    let n = storage_get(key, 5, buf, 8);
    let v = 0;
    if (n == 8) { v = load64(buf); }
    store64(buf, v + 1);
    storage_set(key, 5, buf, 8);
    output(buf, 8);
}
"""


@dataclass(frozen=True)
class SimConfig:
    """One reproducible run, fully described."""

    seed: int = 0
    steps: int = 200
    faults: frozenset[str] = frozenset()
    num_nodes: int = 4
    num_zones: int = 2
    tick_s: float = 0.005
    block_every: int = 6  # 6 ticks x 5 ms = the paper's 30 ms block interval
    tx_every: int = 4
    num_clients: int = 3
    max_block_bytes: int = 4096
    sync_cooldown_steps: int = 4
    kv_scan_every: int = 10
    # Storage backend for every node ("memory" | "lsm").  The lsm
    # backend runs on real temp-directory disks, which the crash/torn
    # faults then attack; temp paths never enter the simulated state,
    # so runs stay a pure function of the seed.
    storage: str = "memory"
    # Pre-verification and block execution each have one path, and both
    # run on the simulation's thread, so a seed replays identically.
    engine_config: EngineConfig = field(default_factory=lambda: DEFAULT_CONFIG)


def run_sim(config: SimConfig) -> SimResult:
    """Run one simulation; never raises on invariant violations — they
    are reported in the returned :class:`SimResult`."""
    with deterministic_entropy(config.seed) as rng:
        return _Simulation(config, rng).run()


class _Simulation:
    def __init__(self, config: SimConfig, rng: random.Random):
        self.config = config
        self.rng = rng
        zones = zones_for(config.num_nodes, config.num_zones)
        engine_config = config.engine_config
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        data_root = None
        if config.storage != "memory":
            engine_config = replace(
                engine_config, storage_backend=config.storage
            )
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-sim-")
            data_root = self._tmpdir.name
        self.cluster = SimCluster(
            config.num_nodes, zones, engine_config, data_root=data_root,
            max_block_bytes=config.max_block_bytes,
        )
        self.canary = f"SIM-CANARY-{config.seed}".encode()
        self.epc_canary = f"EPC-SIM-CANARY-{config.seed}".encode()
        self.scanner = ConfidentialityChecker([self.canary, self.epc_canary])
        self.safety = SafetyChecker()
        self.injector = FaultInjector(rng, config.faults, config.num_nodes)
        self.transport = SimTransport(
            self.injector, zones, NetworkModel(), self.scanner
        )
        self.log = EventLog()
        self.result = SimResult(
            seed=config.seed,
            steps=config.steps,
            faults=tuple(sorted(config.faults)),
            num_nodes=config.num_nodes,
            event_log=self.log,
        )
        self.clients = [
            Client.from_seed(f"sim-client-{config.seed}-{i}".encode())
            for i in range(config.num_clients)
        ]
        self.pk_point = decode_point(self.cluster.pk_tx)
        self.contract: bytes = b""
        self.canonical_height = 0
        self.tx_index = 0
        # Injected tx hashes in order, and per tx the nodes that accepted
        # it and have not lost it to a crash (conservation check).
        self.injected: list[bytes] = []
        self.holders: dict[bytes, set[int]] = {}
        self.restarts_due: dict[int, list[int]] = {}
        self.partition_heal_at: int | None = None

    # -- lifecycle -------------------------------------------------------

    def run(self) -> SimResult:
        config, result = self.config, self.result
        final_step, final_now = 0, 0.0
        try:
            self._bootstrap()
            for step in range(config.steps):
                now = (step + 1) * config.tick_s
                final_step, final_now = step, now
                self._apply_faults(step, now)
                self._deliver(step, now)
                if step % config.tx_every == 0:
                    self._inject_tx(now)
                if step % config.block_every == config.block_every - 1:
                    self._cut_block(step, now)
                self._apply_buffered(step, now)
                self._sync(step, now)
                self._check_step(step)
            final_step, final_now = self._drain(config.steps)
            self._final_checks(final_step, final_now)
        except InvariantViolation as exc:
            result.violations.append(str(exc))
        result.fault_schedule = list(self.injector.schedule)
        result.blocks_committed = self.canonical_height
        for sim_node in self.cluster:
            result.final_heights[sim_node.node_id] = sim_node.height
            if sim_node.alive:
                result.final_state_roots[sim_node.node_id] = (
                    sim_node.node.state_root().hex()
                )
        result.converged = not result.violations and all(
            sim_node.alive and sim_node.height == self.canonical_height
            for sim_node in self.cluster
        )
        for sim_node in self.cluster:
            if sim_node.node is not None:
                try:
                    sim_node.node.close()
                except ReproError:
                    pass  # a violation run may leave a broken store behind
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
        return result

    def _bootstrap(self) -> None:
        """Height 1, fault-free: deploy the canary contract everywhere."""
        artifact = compile_source(CANARY_CONTRACT_SOURCE, "wasm")
        tx, self.contract = self.clients[0].confidential_deploy(
            self.pk_point, artifact
        )
        self.injected.append(tx.tx_hash)
        self._submit(self.cluster[0], tx.encode())
        applied = self.cluster[0].gateway.produce_block()
        self._register_block(0, applied, 0, 0.0)
        for sim_node in self.cluster:
            if sim_node.node_id == 0:
                continue
            replica_applied = sim_node.node.apply_block(applied.block)
            self._observe(sim_node.node_id, replica_applied, 0, 0.0)

    # -- per-step phases -------------------------------------------------

    def _apply_faults(self, step: int, now: float) -> None:
        for node_id in sorted(self.restarts_due.pop(step, [])):
            sim_node = self.cluster[node_id]
            if sim_node.alive:
                continue
            restored = sim_node.restart(
                self.cluster.attestation, self.cluster.pk_tx,
                self.cluster.cs_measurement, self.safety,
            )
            self.log.emit(step, now, "restart",
                          f"node={node_id} restored_h={restored}")
            self.scanner.scan_kv(node_id, sim_node.kv)
        if self.partition_heal_at is not None and step >= self.partition_heal_at:
            self.transport.heal()
            self.partition_heal_at = None
            self.log.emit(step, now, "heal", "partition healed")
        plan = self.injector.plan_step(
            step, self.cluster.alive_ids(), self.cluster.crashed_ids(),
            self.transport.partition is not None,
        )
        for fault in plan:
            if isinstance(fault, CrashFault):
                sim_node = self.cluster[fault.node_id]
                if not sim_node.alive:
                    continue
                self._forget_pooled(sim_node)
                sim_node.crash(fault.torn_bytes)
                self.restarts_due.setdefault(
                    fault.restart_step, []
                ).append(fault.node_id)
                self.log.emit(
                    step, now, "crash",
                    f"node={fault.node_id} restart_at={fault.restart_step}"
                    + (f" torn={fault.torn_bytes}" if fault.torn_bytes else ""),
                )
            elif isinstance(fault, PartitionFault):
                self.transport.set_partition(fault.group_a, fault.group_b)
                self.partition_heal_at = fault.heal_step
                self.log.emit(
                    step, now, "partition",
                    f"{list(fault.group_a)}|{list(fault.group_b)} "
                    f"heal_at={fault.heal_step}",
                )
            elif isinstance(fault, SlowFault):
                self.transport.set_slow(
                    fault.node_id, fault.until_step * self.config.tick_s
                )
                self.log.emit(step, now, "slow",
                              f"node={fault.node_id} until={fault.until_step}")
            elif isinstance(fault, EnclaveFault):
                sim_node = self.cluster[fault.node_id]
                if sim_node.alive:
                    sim_node.enclave_restart(
                        self.cluster.attestation, self.cluster.pk_tx,
                        self.cluster.cs_measurement,
                    )
                    self.log.emit(step, now, "enclave",
                                  f"node={fault.node_id} rebuilt+reattested")
            elif isinstance(fault, EpcFault):
                sim_node = self.cluster[fault.node_id]
                sim_node.epc_spike(self.rng, self.epc_canary)
                self.log.emit(
                    step, now, "epc",
                    f"node={fault.node_id} spike "
                    f"live={len(sim_node.epc_handles)}",
                )

    def _deliver(self, step: int, now: float) -> None:
        for message in self.transport.due(now):
            sim_node = self.cluster[message.dst]
            if not sim_node.alive:
                continue
            if message.kind == "tx":
                self._submit(sim_node, message.payload)
            elif message.kind in ("propose", "sync_resp"):
                try:
                    block = Block.decode(message.payload)
                except ReproError:
                    continue
                height = block.header.height
                if height > sim_node.height and height not in sim_node.buffered:
                    sim_node.buffered[height] = message.payload
            elif message.kind == "sync_req":
                height = int.from_bytes(message.payload, "big")
                if 1 <= height <= sim_node.height and message.src >= 0:
                    self.transport.send(
                        now, sim_node.node_id, message.src, "sync_resp",
                        sim_node.node.chain[height - 1].encode(),
                    )

    def _rpc(self, sim_node, method: str, params: dict) -> bytes:
        """One JSON-RPC call at the node's gateway.  The answer crosses
        the wire, so it is scanned like every other message."""
        body = json.dumps({
            "jsonrpc": "2.0", "id": 1, "method": method, "params": params,
        }).encode()
        response = sim_node.gateway.handle_raw(body, "sim-client")
        self.scanner.scan_wire(
            response, f"{method} response node={sim_node.node_id}"
        )
        return response

    def _submit(self, sim_node, payload: bytes) -> None:
        response = json.loads(
            self._rpc(sim_node, "submit_tx", {"tx": payload.hex()})
        )
        result = response.get("result")
        if result is None:
            raise InvariantViolation(
                f"admission: node {sim_node.node_id} refused a valid "
                f"transaction: {response.get('error')}"
            )
        if result["accepted"]:
            self.holders.setdefault(
                bytes.fromhex(result["tx_hash"]), set()
            ).add(sim_node.node_id)

    def _forget_pooled(self, sim_node) -> None:
        """A crash loses the node's pools, and with them every accepted
        transaction it had not yet committed."""
        node = sim_node.node
        for tx_hash, holders in self.holders.items():
            if tx_hash in node.unverified or tx_hash in node.verified:
                holders.discard(sim_node.node_id)

    def _inject_tx(self, now: float) -> None:
        client = self.clients[self.tx_index % len(self.clients)]
        if self.tx_index % 2 == 0:
            args = self.canary + b":%06d" % self.tx_index
            tx = client.confidential_call(
                self.pk_point, self.contract, "put", args
            )
        else:
            tx = client.confidential_call(
                self.pk_point, self.contract, "bump", b""
            )
        self.tx_index += 1
        self.injected.append(tx.tx_hash)
        payload = tx.encode()
        for node_id in range(len(self.cluster)):
            self.transport.send(now, -1, node_id, "tx", payload)

    def _cut_block(self, step: int, now: float) -> None:
        for sim_node in self.cluster:
            if sim_node.alive:
                sim_node.node.preverify_pending()
        leader_id, view_changed, reason = self._pick_leader()
        if leader_id is None:
            self.log.emit(step, now, "stall", reason)
            return
        if view_changed:
            self.result.view_changes += 1
            self.log.emit(step, now, "view_change",
                          f"leader={leader_id} {reason}")
        applied = self.cluster[leader_id].gateway.produce_block()
        self._register_block(leader_id, applied, step, now)
        self.transport.broadcast(
            now, leader_id, "propose", applied.block.encode(),
            list(range(len(self.cluster))),
        )

    def _register_block(self, leader_id: int, applied, step: int,
                        now: float) -> None:
        header = applied.block.header
        num_txs = len(applied.block.transactions)
        self.safety.register_canonical(
            header.height, applied.block.block_hash, header.state_root
        )
        self.canonical_height = header.height
        self.result.txs_committed += num_txs
        self.log.emit(
            step, now, "block",
            f"h={header.height} txs={num_txs} "
            f"blk={applied.block.block_hash.hex()[:12]} leader={leader_id}",
        )
        self._observe(leader_id, applied, step, now)

    def _observe(self, node_id: int, applied, step: int, now: float) -> None:
        header = applied.block.header
        self.safety.observe_commit(
            node_id, header.height, applied.block.block_hash,
            header.state_root,
        )
        self.log.emit(
            step, now, "commit",
            f"node={node_id} h={header.height} "
            f"blk={applied.block.block_hash.hex()[:12]}",
        )

    def _pick_leader(self) -> tuple[int | None, bool, str]:
        """Rotation by next height over alive, caught-up nodes with a
        quorum-sized connected group; walking past the rotation's first
        pick is a view change."""
        n = len(self.cluster)
        quorum = n - (n - 1) // 3
        start = self.canonical_height % n
        for offset in range(n):
            node_id = (start + offset) % n
            sim_node = self.cluster[node_id]
            if not sim_node.alive or sim_node.height != self.canonical_height:
                continue
            group = self._group_of(node_id)
            if len([g for g in group if self.cluster[g].alive]) < quorum:
                continue
            return node_id, offset > 0, (
                "" if offset == 0 else f"rotated_from={start}"
            )
        return None, False, "no eligible leader with a quorum"

    def _group_of(self, node_id: int) -> list[int]:
        partition = self.transport.partition
        if partition is None:
            return list(range(len(self.cluster)))
        side = partition.get(node_id)
        return sorted(i for i, g in partition.items() if g == side)

    def _apply_buffered(self, step: int, now: float) -> None:
        for sim_node in self.cluster:
            if not sim_node.alive:
                continue
            stale = [h for h in sim_node.buffered if h <= sim_node.height]
            for height in stale:
                del sim_node.buffered[height]
            while sim_node.alive and (sim_node.height + 1) in sim_node.buffered:
                payload = sim_node.buffered.pop(sim_node.height + 1)
                block = Block.decode(payload)
                for tx in block.transactions:
                    sim_node.node.unverified.remove(tx.tx_hash)
                    sim_node.node.verified.remove(tx.tx_hash)
                try:
                    applied = sim_node.node.apply_block(block)
                except ChainError as exc:
                    raise InvariantViolation(
                        f"safety: node {sim_node.node_id} failed to apply "
                        f"canonical block {block.header.height}: {exc}"
                    )
                self._observe(sim_node.node_id, applied, step, now)

    def _sync(self, step: int, now: float) -> None:
        for sim_node in self.cluster:
            if not sim_node.alive or sim_node.height >= self.canonical_height:
                continue
            if (sim_node.height + 1) in sim_node.buffered:
                continue
            if step - sim_node.last_sync_step < self.config.sync_cooldown_steps:
                continue
            peers = sorted(
                i for i in self.cluster.alive_ids() if i != sim_node.node_id
            )
            if not peers:
                continue
            peer = self.rng.choice(peers)
            sim_node.last_sync_step = step
            self.transport.send(
                now, sim_node.node_id, peer, "sync_req",
                (sim_node.height + 1).to_bytes(8, "big"),
            )

    def _check_step(self, step: int) -> None:
        for sim_node in self.cluster:
            check_epc_sanity(sim_node.node_id, sim_node.platform.epc)
            self.scanner.scan_epc(sim_node.node_id, sim_node.platform.epc)
        if step % self.config.kv_scan_every == 0:
            for sim_node in self.cluster:
                # A crashed persistent store has no open handles to read
                # through — its raw files are scanned below instead.
                if sim_node.alive or self.config.storage == "memory":
                    self.scanner.scan_kv(sim_node.node_id, sim_node.kv)
                if sim_node.alive:
                    check_state_commitment(sim_node.node)
                if sim_node.data_dir is not None:
                    self.scanner.scan_files(sim_node.node_id, sim_node.data_dir)

    # -- end of run ------------------------------------------------------

    def _pooled(self) -> bool:
        return any(
            len(sn.node.unverified) or len(sn.node.verified)
            for sn in self.cluster
        )

    def _drain(self, base_step: int) -> tuple[int, float]:
        """Fault-free epilogue: heal, restart everyone, converge, and
        keep cutting blocks until every pool is empty."""
        self.injector.active = False
        self.transport.heal()
        self.partition_heal_at = None
        self.transport.slow_until.clear()
        step = base_step
        now = (step + 1) * self.config.tick_s
        self.log.emit(step, now, "drain", "faults off; converging")
        for node_id in sorted(self.cluster.crashed_ids()):
            restored = self.cluster[node_id].restart(
                self.cluster.attestation, self.cluster.pk_tx,
                self.cluster.cs_measurement, self.safety,
            )
            self.log.emit(step, now, "restart",
                          f"node={node_id} restored_h={restored} (drain)")
        max_drain = self.config.steps // 2 + 80
        for extra in range(max_drain):
            step = base_step + extra
            now = (step + 1) * self.config.tick_s
            self._deliver(step, now)
            self._apply_buffered(step, now)
            self._sync(step, now)
            if all(sn.height == self.canonical_height for sn in self.cluster):
                # Cutting only on a converged cluster keeps the rotation
                # from skipping a lagging node, so every node leads in
                # turn and its pool empties.
                if not self._pooled():
                    break
                self._cut_block(step, now)
        return step, now

    def _final_checks(self, step: int, now: float) -> None:
        roots: dict[int, bytes] = {}
        for sim_node in self.cluster:
            self.scanner.scan_kv(sim_node.node_id, sim_node.kv)
            if sim_node.data_dir is not None:
                self.scanner.scan_files(sim_node.node_id, sim_node.data_dir)
            self.scanner.scan_epc(sim_node.node_id, sim_node.platform.epc)
            check_epc_sanity(sim_node.node_id, sim_node.platform.epc)
            if sim_node.alive:
                roots[sim_node.node_id] = sim_node.node.state_root()
        for node_id in sorted(roots):
            self.log.emit(
                step, now, "final",
                f"node={node_id} h={self.cluster[node_id].height} "
                f"root={roots[node_id].hex()[:16]}",
            )
        heights = {sn.node_id: sn.height for sn in self.cluster}
        if any(h != self.canonical_height for h in heights.values()):
            raise InvariantViolation(
                f"liveness: cluster failed to converge to canonical height "
                f"{self.canonical_height}: heights={heights}"
            )
        if len(set(roots.values())) != 1:
            raise InvariantViolation(
                "safety: converged nodes disagree on the final state root: "
                + ", ".join(
                    f"{nid}={root.hex()[:16]}"
                    for nid, root in sorted(roots.items())
                )
            )
        self._check_conservation()

    def _check_conservation(self) -> None:
        """Every gateway answers ``get_receipt`` alike for every injected
        transaction: found iff some node accepted it and kept it."""
        for tx_hash in self.injected:
            answers = {
                self._rpc(sim_node, "get_receipt", {"tx_hash": tx_hash.hex()})
                for sim_node in self.cluster
            }
            if len(answers) != 1:
                raise InvariantViolation(
                    f"conservation: nodes answer get_receipt differently "
                    f"for tx {tx_hash.hex()[:16]}"
                )
            found = json.loads(answers.pop())["result"]["found"]
            if found != bool(self.holders.get(tx_hash)):
                raise InvariantViolation(
                    f"conservation: tx {tx_hash.hex()[:16]} "
                    + ("was accepted but has no receipt" if not found
                       else "has a receipt but no node accepted it")
                )


__all__ = [
    "CANARY_CONTRACT_SOURCE",
    "SimConfig",
    "parse_faults",
    "run_sim",
]
