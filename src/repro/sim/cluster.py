"""Simulated cluster: persistent node identities under lifecycle faults.

A :class:`SimNode` owns what survives a process crash — the KV store
(disk) and the :class:`~repro.tee.enclave.Platform` (the machine, with
its fused sealing secret and EPC) — plus the in-memory
:class:`~repro.chain.node.Node`, which a crash discards.

Restart follows CONFIDE's recovery story end to end: a fresh node is
built on the same storage and platform, the confidential engine
recovers its keys through the K-Protocol's platform-sealed path
(``restore_keys_from_storage``), re-attests (fresh quote over the
recovered ``pk_tx``, verified against the consortium's attestation
service and the reference CS-enclave measurement), and replays its
chain from persisted blocks — with the durability invariant checked on
the way (restored head state root must equal the root recomputed from
storage, and must be a block the cluster canonically committed).
"""

from __future__ import annotations

import glob
import os
import random

from repro.chain.executor import BlockExecutor
from repro.chain.node import DEFAULT_BLOCK_BYTES, Node, make_store
from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.engine import ConfidentialEngine
from repro.core.k_protocol import bootstrap_founder, mutual_attested_provision
from repro.errors import (
    ChainError,
    EnclaveError,
    InvariantViolation,
    ProtocolError,
    StorageError,
)
from repro.serve.gateway import Gateway, GatewayConfig
from repro.sim.invariants import SafetyChecker
from repro.storage.kv import MemoryKV
from repro.tee.attestation import AttestationService, create_quote
from repro.tee.enclave import Platform

_EPC_SPIKE_MAX_LIVE = 8
_EPC_SPIKE_FRACTION = 6  # each spike reserves budget/6 pages


class SimNode:
    """One consortium member with durable storage and platform.

    Clients reach the live node only through its :class:`Gateway`,
    which dies with the process and is built again over the restarted
    node.
    """

    def __init__(self, node_id: int, zone: int, config: EngineConfig,
                 data_dir: str | None = None,
                 max_block_bytes: int = DEFAULT_BLOCK_BYTES):
        self.node_id = node_id
        self.zone = zone
        self.config = config
        self.data_dir = data_dir
        # The leader cuts a block on every beat, empty or not; no rate limit.
        self.gateway_config = GatewayConfig(
            max_block_bytes=max_block_bytes, cut_empty_blocks=True
        )
        self.platform = Platform(
            platform_id=f"sim-node-{node_id}",
            use_memory_pool=config.use_memory_pool,
        )
        # The node's disk: survives crashes.  In-memory by default; with
        # a data_dir and a persistent backend, a real on-disk store
        # (sealed to this platform for the LSM engine).
        if data_dir is not None and config.storage_backend != "memory":
            self.kv = make_store(config, data_dir, self.platform)
        else:
            self.kv = MemoryKV()
        self.node: Node | None = None
        self.gateway: Gateway | None = None
        self._serve(Node(
            node_id, zone=zone, kv=self.kv, config=config,
            platform=self.platform,
        ))
        self.buffered: dict[int, bytes] = {}  # height -> block bytes (in-memory)
        self.last_sync_step = -(10 ** 9)
        self.epc_handles: list[int] = []
        self.crashes = 0
        self.enclave_restarts = 0

    @property
    def alive(self) -> bool:
        return self.node is not None

    @property
    def height(self) -> int:
        return self.node.height if self.node is not None else -1

    def _serve(self, node: Node) -> None:
        """Make ``node`` the live process, fronted by a fresh gateway."""
        self.node = node
        self.gateway = Gateway(node, self.gateway_config)

    # -- lifecycle faults ------------------------------------------------

    def crash(self, torn_bytes: int = 0) -> None:
        """Kill the process: in-memory node, pools, and buffers are gone;
        the disk (KV store) and the platform (sealed secrets, EPC)
        remain.  ``torn_bytes`` shears that many bytes off the tail of
        the newest WAL file — the mid-record write the process died in.
        """
        node, self.node = self.node, None
        self.gateway = None
        self.buffered = {}
        self.crashes += 1
        if node is not None:
            node.close(close_kv=False)  # pools die with the process
        crasher = getattr(self.kv, "crash", None)
        if crasher is not None:
            crasher()  # drop file handles with no flush / clean shutdown
        if torn_bytes:
            self._tear_wal_tail(torn_bytes)

    def _tear_wal_tail(self, torn_bytes: int) -> int:
        """Simulate a torn write by truncating the newest WAL file."""
        if self.data_dir is None:
            return 0
        logs = sorted(set(glob.glob(os.path.join(self.data_dir, "*.log"))))
        if not logs:
            return 0
        path = logs[-1]
        size = os.path.getsize(path)
        cut = min(torn_bytes, size)
        if cut:
            with open(path, "r+b") as f:
                f.truncate(size - cut)
        return cut

    def restart(self, attestation: AttestationService, expected_pk_tx: bytes,
                cs_measurement, safety: SafetyChecker) -> int:
        """Restart from persisted storage; returns the restored height.

        Raises :class:`InvariantViolation` if key recovery, attestation,
        or chain replay breaks an invariant.
        """
        if self.data_dir is not None and self.config.storage_backend != "memory":
            try:
                # Reopen the on-disk store: WAL recovery (tolerating the
                # torn tail a crash may have left) + manifest freshness
                # checks against this platform's monotonic counter.
                self.kv = make_store(self.config, self.data_dir, self.platform)
            except StorageError as exc:
                raise InvariantViolation(
                    f"durability: node {self.node_id} storage reopen "
                    f"refused after crash: {exc}"
                )
        node = Node(
            self.node_id, zone=self.zone, kv=self.kv, config=self.config,
            platform=self.platform,
        )
        try:
            recovered_pk = node.confidential.restore_keys_from_storage()
        except (ProtocolError, EnclaveError) as exc:
            raise InvariantViolation(
                f"confidentiality: node {self.node_id} failed K-Protocol key "
                f"recovery after restart: {exc}"
            )
        if recovered_pk != expected_pk_tx:
            raise InvariantViolation(
                f"confidentiality: node {self.node_id} recovered a different "
                "pk_tx than the consortium agreed via the K-Protocol"
            )
        self._reattest(node, attestation, recovered_pk, cs_measurement)
        try:
            restored = node.restore_chain_from_storage()
        except ChainError as exc:
            raise InvariantViolation(
                f"durability: node {self.node_id} restart replay failed: {exc}"
            )
        if restored:
            head = node.chain[-1]
            safety.check_restored(
                self.node_id, head.header.height, head.block_hash,
                head.header.state_root,
            )
        self._serve(node)
        return restored

    def enclave_restart(self, attestation: AttestationService,
                        expected_pk_tx: bytes, cs_measurement) -> None:
        """Tear down and rebuild the confidential engine on a live node
        (enclave-only fault: the host process and chain survive)."""
        node = self.node
        assert node is not None
        engine = ConfidentialEngine(self.kv, self.config, platform=self.platform)
        try:
            recovered_pk = engine.restore_keys_from_storage()
        except (ProtocolError, EnclaveError) as exc:
            raise InvariantViolation(
                f"confidentiality: node {self.node_id} enclave rebuild failed "
                f"K-Protocol key recovery: {exc}"
            )
        if recovered_pk != expected_pk_tx:
            raise InvariantViolation(
                f"confidentiality: node {self.node_id} rebuilt enclave "
                "recovered a different pk_tx"
            )
        self._reattest(None, attestation, recovered_pk, cs_measurement,
                       engine=engine)
        node.confidential = engine
        node.executor = BlockExecutor(engine, node.public)
        self.enclave_restarts += 1

    @staticmethod
    def _reattest(node, attestation: AttestationService, pk_tx: bytes,
                  cs_measurement, engine=None) -> None:
        confidential = engine if engine is not None else node.confidential
        quote = create_quote(
            confidential.cs,
            AttestationService.report_data_for_key(pk_tx),
        )
        try:
            attestation.verify(quote, expected_measurement=cs_measurement)
        except EnclaveError as exc:
            raise InvariantViolation(
                "confidentiality: re-attestation after enclave restart "
                f"failed on node: {exc}"
            )

    # -- EPC pressure ----------------------------------------------------

    def epc_spike(self, rng: random.Random, canary: bytes) -> None:
        """Reserve a large slab of EPC carrying canary content; sustained
        spikes overflow the budget and force canary pages through the
        encrypt-on-evict path the confidentiality scan watches."""
        epc = self.platform.epc
        pages = max(1, epc.budget_pages // _EPC_SPIKE_FRACTION)
        from repro.tee.epc import PAGE_SIZE
        handle = epc.allocate(pages * PAGE_SIZE)
        epc.store_bytes(handle, canary * 32 + rng.randbytes(64))
        self.epc_handles.append(handle)
        while len(self.epc_handles) > _EPC_SPIKE_MAX_LIVE:
            epc.free(self.epc_handles.pop(0))
        if self.epc_handles and rng.random() < 0.3:
            index = rng.randrange(len(self.epc_handles))
            epc.free(self.epc_handles.pop(index))


class SimCluster:
    """The full consortium plus its attestation service and shared keys."""

    def __init__(self, num_nodes: int, zones: list[int],
                 config: EngineConfig = DEFAULT_CONFIG,
                 data_root: str | None = None,
                 max_block_bytes: int = DEFAULT_BLOCK_BYTES):
        if num_nodes < 4:
            raise ChainError("the simulator needs >= 4 nodes (PBFT f >= 1)")
        self.sim_nodes = [
            SimNode(
                i, zones[i], config,
                data_dir=(os.path.join(data_root, f"node-{i}")
                          if data_root is not None else None),
                max_block_bytes=max_block_bytes,
            )
            for i in range(num_nodes)
        ]
        self.attestation = AttestationService()
        for sim_node in self.sim_nodes:
            self.attestation.register_platform(sim_node.platform)
        nodes = [sn.node for sn in self.sim_nodes]
        bootstrap_founder(nodes[0].confidential.km)
        for joiner in nodes[1:]:
            mutual_attested_provision(
                nodes[0].confidential.km, joiner.confidential.km,
                self.attestation,
            )
        for node in nodes:
            node.confidential.provision_from_km()
        self.pk_tx: bytes = nodes[0].confidential.pk_tx
        self.cs_measurement = nodes[0].confidential.cs.measurement

    def __iter__(self):
        return iter(self.sim_nodes)

    def __getitem__(self, node_id: int) -> SimNode:
        return self.sim_nodes[node_id]

    def __len__(self) -> int:
        return len(self.sim_nodes)

    def alive_ids(self) -> list[int]:
        return [sn.node_id for sn in self.sim_nodes if sn.alive]

    def crashed_ids(self) -> list[int]:
        return [sn.node_id for sn in self.sim_nodes if not sn.alive]
