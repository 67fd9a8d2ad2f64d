"""Deterministic multi-shard simulation with cross-shard fault injection.

The single-consortium simulator (:mod:`repro.sim.harness`) attacks one
PBFT group from below — message loss, crashes, enclave teardown.  This
harness attacks the layer above it: N shard groups, a receipt relay,
and the cross-shard commit coordinator.  Its fault repertoire is shard
scoped:

- ``partition`` — a whole shard becomes unreachable from the router,
  relay, and coordinator mid-cross-shard-commit, then heals.  The
  coordinator's deterministic timeout/abort must keep every other shard
  and bundle progressing, and the healed shard must converge.
- ``coordinator_crash`` — the coordinator process dies and is rebuilt
  from its write-ahead journal (:class:`~repro.shard.coordinator.
  CoordinatorJournal`), mid-flight bundles reconciled against shard
  receipts.

Like the base harness, one ``random.Random(seed)`` drives everything
(installed process-wide via ``deterministic_entropy``), so a run — and
the :class:`ShardSimResult` digest over every shard head, state root,
and journal byte — is a pure function of the seed.  Canary plaintext is
planted in both single-shard inputs and cross-shard bundle payloads;
the scan covers node storage, the relay's wire log, and the
coordinator's journal (everything that crosses or outlives a shard
boundary).

After the fault window the run heals everything, drains to coordinator
quiescence, and asserts per-shard convergence plus the cross-shard
atomicity invariant: for every bundle, exactly one of {applied,
aborted}, and never an effect on the remote shard without its escrow
on the home shard.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.crypto.ecc import decode_point
from repro.crypto.entropy import deterministic_entropy
from repro.crypto.hashes import sha256
from repro.errors import InvariantViolation
from repro.lang import compile_source
from repro.shard.coordinator import (
    ABORTED,
    COMMITTED,
    CoordinatorJournal,
    ShardCoordinator,
)
from repro.shard.group import ShardedConsortium, build_sharded_consortium
from repro.shard.relay import (
    ESCROW_CONTRACT_SOURCE,
    ReceiptRelay,
    build_cross_shard_bundle,
)
from repro.sim.invariants import (
    ConfidentialityChecker,
    check_state_commitment,
)
from repro.workloads.clients import Client

SHARD_FAULT_KINDS = ("partition", "coordinator_crash")


@dataclass(frozen=True)
class ShardSimConfig:
    """One reproducible multi-shard run, fully described."""

    seed: int = 0
    steps: int = 60
    shards: int = 2
    nodes_per_shard: int = 4
    faults: frozenset[str] = frozenset()
    num_clients: int = 4
    cross_every: int = 3  # every Nth injected tx is a cross-shard bundle
    round_every: int = 2  # consensus + coordinator cadence, in steps
    timeout_rounds: int = 4
    kv_scan_every: int = 10


@dataclass
class ShardSimResult:
    """What one run decided, plus its replay fingerprint."""

    seed: int
    steps: int
    shards: int
    faults: tuple[str, ...]
    txs_injected: int = 0
    bundles_submitted: int = 0
    bundles_committed: int = 0
    bundles_aborted: int = 0
    relay_attested: int = 0
    relay_quorum: int = 0
    coordinator_crashes: int = 0
    partitions: int = 0
    heights: dict[int, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    converged: bool = False
    digest: str = ""

    def summary(self) -> str:
        status = "CONVERGED" if self.converged else "FAILED"
        lines = [
            f"shard-sim seed={self.seed} shards={self.shards} "
            f"steps={self.steps} faults={','.join(self.faults) or 'none'}: "
            f"{status}",
            f"  txs={self.txs_injected} bundles={self.bundles_submitted} "
            f"(committed={self.bundles_committed} "
            f"aborted={self.bundles_aborted})",
            f"  relay: attested={self.relay_attested} "
            f"quorum={self.relay_quorum}; "
            f"crashes={self.coordinator_crashes} "
            f"partitions={self.partitions}",
            f"  heights={dict(sorted(self.heights.items()))}",
            f"  digest={self.digest[:32]}",
        ]
        lines.extend(f"  VIOLATION: {v}" for v in self.violations)
        return "\n".join(lines)


def parse_shard_faults(spec: str) -> frozenset[str]:
    if not spec or spec == "none":
        return frozenset()
    kinds = frozenset(part.strip() for part in spec.split(",") if part.strip())
    unknown = kinds - frozenset(SHARD_FAULT_KINDS)
    if unknown:
        raise ValueError(
            f"unknown shard fault kinds {sorted(unknown)}; "
            f"known: {list(SHARD_FAULT_KINDS)}"
        )
    return kinds


def run_shard_sim(config: ShardSimConfig) -> ShardSimResult:
    """Run one multi-shard simulation; invariant violations are reported
    in the result, never raised."""
    with deterministic_entropy(config.seed) as rng:
        return _ShardSimulation(config, rng).run()


class _ShardSimulation:
    def __init__(self, config: ShardSimConfig, rng: random.Random):
        self.config = config
        self.rng = rng
        self.result = ShardSimResult(
            seed=config.seed, steps=config.steps, shards=config.shards,
            faults=tuple(sorted(config.faults)),
        )
        self.canary = f"SHARD-CANARY-{config.seed}".encode()
        self.scanner = ConfidentialityChecker([self.canary])
        self.consortium: ShardedConsortium | None = None
        self.coordinator: ShardCoordinator | None = None
        self.journal = CoordinatorJournal()
        self.clients: list[Client] = []
        self.contract = b""
        self.tx_index = 0
        # Fault schedule: fixed fractions of the run so the partition
        # reliably lands mid-cross-shard-commit and the crash lands
        # while bundles are in flight; which shard partitions is seeded.
        self.partition_at = config.steps // 3
        self.heal_at = (2 * config.steps) // 3
        self.crash_at = config.steps // 2
        self.partitioned_shard: int | None = None

    # -- lifecycle -------------------------------------------------------

    def run(self) -> ShardSimResult:
        config, result = self.config, self.result
        try:
            self._bootstrap()
            for step in range(config.steps):
                self._apply_faults(step)
                self._inject_tx()
                if step % config.round_every == config.round_every - 1:
                    self.consortium.run_round()
                    self.coordinator.step()
                self._check_step(step)
            self._drain()
            self._final_checks()
        except InvariantViolation as exc:
            result.violations.append(str(exc))
        finally:
            self._collect()
            if self.consortium is not None:
                self.consortium.close()
        return result

    def _bootstrap(self) -> None:
        self.consortium = build_sharded_consortium(
            self.config.shards, self.config.nodes_per_shard
        )
        relay = ReceiptRelay(self.consortium)
        self.coordinator = ShardCoordinator(
            self.consortium, relay=relay, journal=self.journal,
            timeout_rounds=self.config.timeout_rounds,
        )
        self.clients = [
            Client.from_seed(f"shard-sim-{self.config.seed}-{i}".encode())
            for i in range(self.config.num_clients)
        ]
        artifact = compile_source(ESCROW_CONTRACT_SOURCE, "wasm")
        pk = decode_point(self.consortium.pk_tx)
        tx, self.contract = self.clients[0].confidential_deploy(pk, artifact)
        self.consortium.submit(tx)
        self.consortium.run_until_empty()

    # -- per-step phases -------------------------------------------------

    def _apply_faults(self, step: int) -> None:
        config = self.config
        if "partition" in config.faults:
            if step == self.partition_at and self.partitioned_shard is None:
                self.partitioned_shard = self.rng.randrange(config.shards)
                self.consortium.groups[self.partitioned_shard].reachable = False
                self.result.partitions += 1
            elif step == self.heal_at and self.partitioned_shard is not None:
                self.consortium.groups[self.partitioned_shard].reachable = True
                self.partitioned_shard = None
        if "coordinator_crash" in config.faults and step == self.crash_at:
            # The coordinator object dies; only the journal KV survives.
            relay = ReceiptRelay(self.consortium)
            old = self.coordinator
            relay.attested_served = old.relay.attested_served
            relay.quorum_served = old.relay.quorum_served
            relay.wire_log = old.relay.wire_log
            self.coordinator = ShardCoordinator.recover(
                self.consortium, self.journal, relay=relay,
                timeout_rounds=config.timeout_rounds,
            )
            self.result.coordinator_crashes += 1

    def _inject_tx(self) -> None:
        config = self.config
        client = self.clients[self.tx_index % len(self.clients)]
        pk = decode_point(self.consortium.pk_tx)
        cross = (
            config.shards > 1
            and self.tx_index % config.cross_every == config.cross_every - 1
        )
        if cross:
            home = self.consortium.router.shard_for_sender(client.address)
            remote = (home + 1 + self.rng.randrange(config.shards - 1)) \
                % config.shards
            payload = self.canary + b":xs:%06d" % self.tx_index
            bundle = build_cross_shard_bundle(
                client, pk, self.contract, home, remote, payload
            )
            self.coordinator.submit(bundle)
            self.result.bundles_submitted += 1
        elif self.tx_index % 2 == 0:
            args = self.canary + b":%06d" % self.tx_index
            self.consortium.submit(
                client.confidential_call(pk, self.contract, "put", args)
            )
        else:
            self.consortium.submit(
                client.confidential_call(pk, self.contract, "bump", b"")
            )
        self.tx_index += 1
        self.result.txs_injected += 1

    def _check_step(self, step: int) -> None:
        self.scanner.scan_blobs(
            self.coordinator.relay.wire_log, "cross-shard relay wire"
        )
        self.scanner.scan_blobs(
            self.journal.blobs(), "coordinator journal"
        )
        self._check_atomicity()
        if step % self.config.kv_scan_every == 0:
            for group in self.consortium.groups:
                for node in group.nodes:
                    self.scanner.scan_kv(node.node_id, node.kv)
                    check_state_commitment(node)

    def _check_atomicity(self, require_terminal: bool = False) -> None:
        """Exactly-one-of {applied, aborted}; no remote effect without
        its home escrow; terminal coordinator state matches the chain."""
        for bundle_id, record in sorted(self.coordinator.records.items()):
            bundle = record.bundle
            home = self.consortium.groups[bundle.home_shard].nodes[0]
            remote = self.consortium.groups[bundle.remote_shard].nodes[0]
            prepared = home.tx_outcomes.get(bundle.prepare.tx_hash)
            applied = remote.tx_outcomes.get(bundle.apply.tx_hash)
            aborted = home.tx_outcomes.get(bundle.abort.tx_hash)
            did_apply = applied is not None and applied[1]
            did_abort = aborted is not None and aborted[1]
            tag = bundle_id.hex()[:12]
            if did_apply and did_abort:
                raise InvariantViolation(
                    f"atomicity: bundle {tag} both applied and aborted"
                )
            if did_apply and (prepared is None or not prepared[1]):
                raise InvariantViolation(
                    f"atomicity: bundle {tag} applied on shard "
                    f"{bundle.remote_shard} without a committed prepare "
                    f"on shard {bundle.home_shard}"
                )
            if record.state == COMMITTED and not did_apply:
                raise InvariantViolation(
                    f"atomicity: bundle {tag} reported committed but the "
                    "apply leg never committed"
                )
            if record.state == ABORTED and did_apply:
                raise InvariantViolation(
                    f"atomicity: bundle {tag} reported aborted but the "
                    "apply leg committed"
                )
            if require_terminal and record.state not in (COMMITTED, ABORTED):
                raise InvariantViolation(
                    f"liveness: bundle {tag} still {record.state.decode()} "
                    "after the drain"
                )

    # -- end of run ------------------------------------------------------

    def _drain(self) -> None:
        """Heal everything, then run to coordinator quiescence."""
        for group in self.consortium.groups:
            group.reachable = True
        self.partitioned_shard = None
        max_drain = self.config.steps + 40
        for _ in range(max_drain):
            pending_pool = any(g.pending() for g in self.consortium.groups)
            if not pending_pool and not self.coordinator.pending():
                break
            self.consortium.run_round()
            self.coordinator.step()

    def _final_checks(self) -> None:
        self._check_atomicity(require_terminal=True)
        self.scanner.scan_blobs(
            self.coordinator.relay.wire_log, "cross-shard relay wire"
        )
        self.scanner.scan_blobs(self.journal.blobs(), "coordinator journal")
        for group in self.consortium.groups:
            for node in group.nodes:
                self.scanner.scan_kv(node.node_id, node.kv)
            heights = {n.node_id: n.height for n in group.nodes}
            if len(set(heights.values())) != 1:
                raise InvariantViolation(
                    f"liveness: shard {group.shard_id} nodes disagree on "
                    f"height: {heights}"
                )
            roots = {n.node_id: n.state_root() for n in group.nodes}
            if len(set(roots.values())) != 1:
                raise InvariantViolation(
                    f"safety: shard {group.shard_id} nodes disagree on the "
                    "final state root"
                )
        self.result.converged = True

    def _collect(self) -> None:
        result = self.result
        if self.coordinator is not None:
            result.bundles_committed = self.coordinator.committed_total
            result.bundles_aborted = self.coordinator.aborted_total
            result.relay_attested = self.coordinator.relay.attested_served
            result.relay_quorum = self.coordinator.relay.quorum_served
        if self.consortium is not None:
            for group in self.consortium.groups:
                result.heights[group.shard_id] = group.height
            result.digest = self._digest()

    def _digest(self) -> str:
        """Replay fingerprint: every shard head, every state root, every
        journal byte.  Two runs of one seed must agree byte for byte."""
        h = sha256(b"shard-sim-digest:")
        material = []
        for group in self.consortium.groups:
            node = group.nodes[0]
            material.append(group.shard_id.to_bytes(4, "big"))
            material.append(node.head_hash)
            material.append(node.state_root())
        for blob in sorted(self.journal.blobs()):
            material.append(sha256(blob))
        h = sha256(b"shard-sim-digest:" + b"".join(material))
        return h.hex()


__all__ = [
    "SHARD_FAULT_KINDS",
    "ShardSimConfig",
    "ShardSimResult",
    "parse_shard_faults",
    "run_shard_sim",
]
