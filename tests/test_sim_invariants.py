"""Mutation-style self-tests for the simulator's invariant checkers.

Each invariant class (safety, durability, confidentiality) gets at
least one test that *plants a real violation* and asserts the checker
fires — so weakening any check makes these tests fail, not pass.
"""

import os

import pytest

from repro.crypto.ecc import decode_point
from repro.errors import InvariantViolation
from repro.lang import compile_source
from repro.sim import (
    ConfidentialityChecker,
    SafetyChecker,
    SimConfig,
    check_epc_sanity,
    run_sim,
)
from repro.sim.cluster import SimCluster
from repro.sim.events import SimResult
from repro.storage import MemoryKV
from repro.tee.epc import PAGE_SIZE, EpcAllocator
from repro.tee.transitions import CycleAccountant
from repro.workloads.clients import Client

COUNTER = """
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


def _committed_cluster():
    """A 4-node cluster with two committed blocks of real state."""
    cluster = SimCluster(4, [0, 0, 0, 0])
    safety = SafetyChecker()
    client = Client.from_seed(b"sim-invariant-client")
    pk = decode_point(cluster.pk_tx)
    artifact = compile_source(COUNTER, "wasm")
    founder = cluster[0].node

    tx, address = client.confidential_deploy(pk, artifact)
    founder.receive_transaction(tx)
    founder.preverify_pending()
    applied = founder.apply_transactions(founder.draft_block(max_bytes=1 << 20))
    safety.register_canonical(1, applied.block.block_hash,
                              applied.block.header.state_root)
    for sim_node in list(cluster)[1:]:
        sim_node.node.apply_block(applied.block)

    founder.receive_transaction(
        client.confidential_call(pk, address, "bump", b"")
    )
    founder.preverify_pending()
    applied = founder.apply_transactions(founder.draft_block(max_bytes=1 << 20))
    safety.register_canonical(2, applied.block.block_hash,
                              applied.block.header.state_root)
    for sim_node in list(cluster)[1:]:
        sim_node.node.apply_block(applied.block)
    return cluster, safety


class TestSafetyInvariant:
    def test_conflicting_canonical_blocks_rejected(self):
        checker = SafetyChecker()
        checker.register_canonical(5, b"\x01" * 32, b"\x02" * 32)
        with pytest.raises(InvariantViolation, match="safety"):
            checker.register_canonical(5, b"\x03" * 32, b"\x02" * 32)

    def test_conflicting_node_commit_detected(self):
        checker = SafetyChecker()
        checker.register_canonical(3, b"\x01" * 32, b"\x02" * 32)
        checker.observe_commit(0, 3, b"\x01" * 32, b"\x02" * 32)  # agrees: fine
        with pytest.raises(InvariantViolation, match="safety.*diverges"):
            checker.observe_commit(1, 3, b"\xff" * 32, b"\x02" * 32)

    def test_state_root_divergence_detected(self):
        checker = SafetyChecker()
        checker.register_canonical(3, b"\x01" * 32, b"\x02" * 32)
        with pytest.raises(InvariantViolation, match="safety.*diverges"):
            checker.observe_commit(2, 3, b"\x01" * 32, b"\xee" * 32)

    def test_commit_before_ordering_decision_detected(self):
        checker = SafetyChecker()
        with pytest.raises(InvariantViolation, match="before the ordering"):
            checker.observe_commit(0, 9, b"\x01" * 32, b"\x02" * 32)


class TestDurabilityInvariant:
    def test_tampered_persisted_state_detected_on_restart(self):
        """Plant a real durability violation: delete one replicated state
        entry from a crashed node's disk.  Restart replay must refuse to
        restore a head whose state root no longer matches storage."""
        cluster, safety = _committed_cluster()
        victim = cluster[2]
        victim.crash()
        state_key = next(
            key for key, _ in victim.kv.items() if key.startswith(b"s:")
        )
        victim.kv.delete(state_key)
        with pytest.raises(InvariantViolation, match="durability"):
            victim.restart(cluster.attestation, cluster.pk_tx,
                           cluster.cs_measurement, safety)

    def test_restored_head_must_be_cluster_committed(self):
        checker = SafetyChecker()
        checker.register_canonical(4, b"\x01" * 32, b"\x02" * 32)
        checker.check_restored(1, 4, b"\x01" * 32, b"\x02" * 32)  # fine
        with pytest.raises(InvariantViolation, match="durability"):
            checker.check_restored(1, 4, b"\x09" * 32, b"\x02" * 32)

    def test_clean_restart_passes(self):
        cluster, safety = _committed_cluster()
        victim = cluster[1]
        victim.crash()
        restored = victim.restart(cluster.attestation, cluster.pk_tx,
                                  cluster.cs_measurement, safety)
        assert restored == 2
        assert victim.node.state_root() == cluster[0].node.state_root()


class TestConfidentialityInvariant:
    CANARY = b"SIM-CANARY-SELFTEST"

    def test_canary_on_the_wire_detected(self):
        checker = ConfidentialityChecker([self.CANARY])
        checker.scan_wire(b"sealed:" + b"\x80" * 40, "tx -1->0")  # fine
        with pytest.raises(InvariantViolation, match="on the wire"):
            checker.scan_wire(b"prefix" + self.CANARY + b"suffix", "tx -1->0")

    def test_canary_in_persisted_storage_detected(self):
        checker = ConfidentialityChecker([self.CANARY])
        kv = MemoryKV()
        kv.put(b"s:harmless", b"\x01\x02\x03")
        checker.scan_kv(0, kv)  # fine
        kv.put(b"s:leaky", b"x" + self.CANARY)
        with pytest.raises(InvariantViolation, match="persisted"):
            checker.scan_kv(0, kv)

    def test_canary_in_evicted_epc_page_detected(self):
        # scan_epc reads the allocator's untrusted page copies directly.
        checker = ConfidentialityChecker([self.CANARY])
        alloc = EpcAllocator(CycleAccountant(), budget_bytes=8 * PAGE_SIZE,
                             use_pool=True)
        handle = alloc.allocate(4 * PAGE_SIZE)
        alloc.store_bytes(handle, self.CANARY * 10)
        alloc.allocate(4 * PAGE_SIZE)
        alloc.allocate(3 * PAGE_SIZE)  # evicts the canary allocation
        assert alloc.evicted_blob(handle) is not None
        # Real eviction path: page is re-encrypted, so the scan passes.
        checker.scan_epc(0, alloc)
        # Mutated eviction path (no re-encryption): the scan must fire.
        alloc._evicted_bytes[handle] = self.CANARY * 10
        with pytest.raises(InvariantViolation, match="evicted EPC"):
            checker.scan_epc(0, alloc)

    def test_file_scan_survives_the_flushers_rename_and_hides_nothing(
            self, tmp_path, monkeypatch):
        # A live node's background flusher commits by rename.  With the
        # commitment check armed beside it, the file scan lost this race
        # in ~1 of 16 runs of TestSimOnLsm: MANIFEST.tmp was listed, then
        # renamed into place before the open.  Reproduce it exactly.
        checker = ConfidentialityChecker([self.CANARY])
        tmp, final = tmp_path / "MANIFEST.tmp", tmp_path / "MANIFEST"
        tmp.write_bytes(b"leaky" + self.CANARY)
        isfile = os.path.isfile

        def isfile_then_rename(path):
            found = isfile(path)
            if path == str(tmp) and found:
                os.replace(tmp, final)  # the flusher wins the race
            return found

        monkeypatch.setattr(os.path, "isfile", isfile_then_rename)
        checker.scan_files(0, str(tmp_path))  # no FileNotFoundError
        # The renamed file is not lost to the checker: the next scan
        # reads it under its new name.
        with pytest.raises(InvariantViolation, match="storage file MANIFEST"):
            checker.scan_files(0, str(tmp_path))

    def test_plaintext_blob_surface_detected(self):
        checker = ConfidentialityChecker([self.CANARY])
        checker.scan_blobs([b"\x01", b"\x02"], "receipts")  # fine
        with pytest.raises(InvariantViolation, match="receipts"):
            checker.scan_blobs([b"ok", self.CANARY], "receipts")


class TestEpcSanity:
    def test_overcounted_residency_detected(self):
        alloc = EpcAllocator(CycleAccountant(), budget_bytes=8 * PAGE_SIZE)
        alloc.allocate(2 * PAGE_SIZE)
        check_epc_sanity(0, alloc)  # fine
        alloc._resident_pages = alloc.budget_pages + 1  # mutate the books
        with pytest.raises(InvariantViolation, match="epc"):
            check_epc_sanity(0, alloc)


class TestHarnessViolationReporting:
    def test_run_sim_reports_violation_with_seed_and_schedule(self, monkeypatch):
        """The harness must catch invariant violations and surface them
        as a replayable failure report, never swallow them."""
        import repro.sim.harness as harness_mod

        def tripped(node_id, epc):
            raise InvariantViolation("epc: injected self-test violation")

        monkeypatch.setattr(harness_mod, "check_epc_sanity", tripped)
        result = run_sim(SimConfig(seed=3, steps=10,
                                   faults=frozenset({"drop"})))
        assert not result.ok
        assert any("injected self-test violation" in v
                   for v in result.violations)
        report = result.failure_report()
        assert "seed=3" in report
        assert "fault schedule" in report

    def test_gateway_echoing_the_canary_is_reported(self, monkeypatch):
        """Every gateway answer crosses the wire: a submit_tx response
        carrying the canary is a confidentiality violation."""
        from repro.serve.gateway import Gateway

        submit = Gateway._rpc_submit_tx

        def echo(self, params, client):
            return {**submit(self, params, client), "echo": "SIM-CANARY-3"}

        monkeypatch.setattr(Gateway, "_rpc_submit_tx", echo)
        result = run_sim(SimConfig(seed=3, steps=10))
        assert any(v.startswith("confidentiality")
                   and "submit_tx response" in v
                   for v in result.violations), result.violations

    def test_node_losing_a_committed_receipt_is_reported(self, monkeypatch):
        """Receipt conservation: after the drain, a node whose gateway
        has lost one committed receipt fails the run."""
        import repro.sim.harness as harness_mod

        drain = harness_mod._Simulation._drain

        def drain_then_lose_a_receipt(self, base_step):
            end = drain(self, base_step)
            receipts = self.cluster[1].node.receipts
            del receipts[next(iter(receipts))]
            return end

        monkeypatch.setattr(harness_mod._Simulation, "_drain",
                            drain_then_lose_a_receipt)
        result = run_sim(SimConfig(seed=3, steps=30))
        assert any(v.startswith("conservation")
                   for v in result.violations), result.violations

    def test_failure_report_prints_seed_and_schedule(self):
        result = SimResult(seed=99, steps=10, faults=("crash",), num_nodes=4)
        result.violations.append("safety: synthetic")
        result.fault_schedule.append("step 00003: crash node=1 restart_at=9")
        report = result.failure_report()
        assert "seed=99" in report
        assert "crash node=1" in report
        assert "safety: synthetic" in report
