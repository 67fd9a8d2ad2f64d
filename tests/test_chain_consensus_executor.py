"""PBFT orderer, modeled lane scheduling and block-execution receipts."""

import pytest

from repro.chain.consensus import PBFTOrderer
from repro.chain.executor import lane_schedule
from repro.chain.network import NetworkModel, zones_for
from repro.chain.node import build_consortium
from repro.chain.transaction import (
    TX_CONFIDENTIAL,
    TX_PUBLIC,
    RawTransaction,
    Transaction,
)
from repro.core.engine import ExecutionOutcome
from repro.core.receipts import KIND_REVERT, Receipt
from repro.errors import ChainError
from repro.lang import compile_source
from repro.workloads.clients import Client


def outcome(duration, reads=frozenset(), writes=frozenset()):
    return ExecutionOutcome(
        receipt=Receipt(b"\x00" * 32, True),
        sealed_receipt=None,
        duration=duration,
        read_set=frozenset(reads),
        write_set=frozenset(writes),
    )


class TestZones:
    def test_single_zone(self):
        assert zones_for(6, 1) == [0] * 6

    def test_two_zone_ratio(self):
        zones = zones_for(12, 2)
        assert zones.count(0) == 4
        assert zones.count(1) == 8

    def test_all_nodes_assigned(self):
        for n in (4, 5, 7, 20):
            assert len(zones_for(n, 2)) == n

    def test_more_zones_than_ratio_entries(self):
        # Regression: with the default (1, 2) ratio, num_zones > 2 used
        # to silently collapse to two zones.  Missing zones pad with
        # weight 1, so every zone is populated.
        for num_zones in (3, 4, 5):
            zones = zones_for(10, num_zones)
            assert len(zones) == 10
            assert set(zones) == set(range(num_zones))

    def test_padded_ratio_keeps_explicit_weights(self):
        zones = zones_for(12, 3, ratio=(1, 2))
        assert set(zones) == {0, 1, 2}
        # 1:2:1 split of 12 nodes.
        assert zones.count(0) == 3
        assert zones.count(1) == 6
        assert zones.count(2) == 3


class TestPBFT:
    def test_minimum_size(self):
        with pytest.raises(ChainError):
            PBFTOrderer([0, 0, 0], NetworkModel())

    def test_quorum_math(self):
        orderer = PBFTOrderer([0] * 7, NetworkModel())
        assert orderer.f == 2
        assert orderer.quorum == 5

    def test_phases_are_ordered(self):
        orderer = PBFTOrderer([0] * 4, NetworkModel())
        report = orderer.round_latency(4096)
        assert 0 < report.preprepare_s <= report.prepared_s <= report.committed_s

    def test_cross_zone_latency_dominates(self):
        model = NetworkModel()
        single = PBFTOrderer([0] * 8, model).round_latency(4096).total_s
        double = PBFTOrderer(zones_for(8, 2), model).round_latency(4096).total_s
        assert double > single * 5

    def test_bigger_blocks_slower(self):
        orderer = PBFTOrderer([0] * 4, NetworkModel())
        assert orderer.round_latency(1 << 20).total_s > orderer.round_latency(1024).total_s

    def test_pipelined_interval_grows_with_cross_zone_nodes(self):
        model = NetworkModel()
        small = PBFTOrderer(zones_for(4, 2), model).pipelined_block_interval(4096)
        large = PBFTOrderer(zones_for(20, 2), model).pipelined_block_interval(4096)
        assert large > small * 2

    def test_pipelined_interval_tiny_single_zone(self):
        model = NetworkModel()
        interval = PBFTOrderer([0] * 20, model).pipelined_block_interval(4096)
        assert interval < 0.001

    @pytest.mark.parametrize("zones, committed_s", [
        ([0, 0, 1, 1], 0.09179558399999999),
        ([0] * 7, 0.0015140287999999996),
    ])
    def test_round_latency_pinned(self, zones, committed_s):
        # benchmarks/e2e reports this float as chain.modeled_pbft_round_ms;
        # it must stay bit-identical across refactors of the round model.
        orderer = PBFTOrderer(zones, NetworkModel())
        assert orderer.round_latency(4096).committed_s == committed_s

    def test_state_root_quorum(self):
        orderer = PBFTOrderer([0] * 4, NetworkModel())
        assert orderer.verify_state_roots([b"r"] * 3 + [b"evil"]) == b"r"

    def test_state_root_divergence_detected(self):
        orderer = PBFTOrderer([0] * 4, NetworkModel())
        with pytest.raises(ChainError, match="divergence"):
            orderer.verify_state_roots([b"a", b"a", b"b", b"b"])


class TestLaneSchedule:
    def test_one_lane_is_serial(self):
        outcomes = [outcome(0.1) for _ in range(4)]
        makespan, _ = lane_schedule(outcomes, 1)
        assert makespan == pytest.approx(0.4)

    def test_disjoint_txs_parallelize(self):
        outcomes = [outcome(0.1, writes={f"k{i}".encode()}) for i in range(4)]
        makespan, conflicts = lane_schedule(outcomes, 4)
        assert makespan == pytest.approx(0.1)
        assert conflicts == 0

    def test_write_conflicts_serialize(self):
        outcomes = [outcome(0.1, writes={b"same"}) for _ in range(4)]
        makespan, conflicts = lane_schedule(outcomes, 4)
        assert makespan == pytest.approx(0.4)
        assert conflicts > 0

    def test_read_write_conflicts_serialize(self):
        a = outcome(0.1, writes={b"k"})
        b = outcome(0.1, reads={b"k"})
        makespan, conflicts = lane_schedule([a, b], 2)
        assert makespan == pytest.approx(0.2)
        assert conflicts == 1

    def test_read_read_no_conflict(self):
        outcomes = [outcome(0.1, reads={b"shared"}) for _ in range(4)]
        makespan, conflicts = lane_schedule(outcomes, 4)
        assert makespan == pytest.approx(0.1)
        assert conflicts == 0

    def test_makespan_bounded_by_serial(self):
        outcomes = [
            outcome(0.05 * (i % 3 + 1), writes={f"k{i % 2}".encode()})
            for i in range(8)
        ]
        serial = sum(o.duration for o in outcomes)
        for lanes in (1, 2, 4, 8):
            makespan, _ = lane_schedule(outcomes, lanes)
            assert makespan <= serial + 1e-9

    def test_more_lanes_never_slower(self):
        outcomes = [
            outcome(0.03, writes={f"k{i % 3}".encode()}) for i in range(9)
        ]
        makespans = [lane_schedule(outcomes, lanes)[0] for lanes in (1, 2, 3, 6)]
        assert makespans == sorted(makespans, reverse=True)

    def test_zero_lanes_rejected(self):
        with pytest.raises(ChainError):
            lane_schedule([], 0)

    def test_empty_block(self):
        makespan, conflicts = lane_schedule([], 4)
        assert makespan == 0.0
        assert conflicts == 0


# Reverts with a message that *looks like* a static-analysis rejection;
# only the structured receipt kind may distinguish the two.
_TRAP_SOURCE = """
fn trap() {
    abort("analysis: user-chosen revert message", 34);
}
"""


class TestReceiptKindRegression:
    def test_user_revert_is_not_an_analysis_rejection(self):
        # Regression: the executor used to classify receipts with
        # receipt.error.startswith("analysis:") — a contract that aborts
        # with that very prefix must still count as a plain revert.
        (node,), _ = build_consortium(1)
        try:
            operator = Client.from_seed(b"trap-op")
            deploy, contract = operator.confidential_deploy(
                node.pk_tx, compile_source(_TRAP_SOURCE, "wasm"), "")
            tx = operator.confidential_call(node.pk_tx, contract, "trap", b"")
            applied = []
            for submitted in (deploy, tx):
                node.receive_transaction(submitted)
                node.preverify_pending()
                applied.append(node.apply_transactions(
                    node.draft_block(max_bytes=1 << 22)))
            assert applied[0].report.outcomes[0].receipt.success
            receipt = applied[1].report.outcomes[0].receipt
            assert not receipt.success
            assert receipt.error.startswith("analysis:")  # the bait
            assert receipt.kind == KIND_REVERT
            assert applied[1].report.analysis_rejections == 0
        finally:
            node.close()


class TestPreverifyPending:
    def test_mixed_batch_admits_only_valid_in_block_order(self):
        """§5.2 pre-verification on the node's one path: good, forged,
        undecryptable and malformed transactions in one batch.  Only the
        valid ones reach the verified pool, in the order they arrived,
        and nothing is left behind in the unverified pool."""
        (node,), _ = build_consortium(1)
        try:
            client = Client.from_seed(b"mixed-batch")
            good = [client.confidential_call(node.pk_tx, b"\x05" * 20, "m",
                                             bytes([i]))
                    for i in range(6)]
            forger = Client.from_seed(b"forger")
            forged = forger.seal(node.pk_tx, RawTransaction(
                sender=b"\xbb" * 20,  # does not match the signing key
                contract=b"\x05" * 20, method="m", args=b"", nonce=1,
            ).signed_by(forger.keypair))
            undecryptable = Transaction(TX_CONFIDENTIAL, b"not an envelope")
            public_ok = Transaction.public(
                Client.from_seed(b"public-user").call_raw(
                    b"\x02" * 20, "m", b""))
            public_bad = Transaction(TX_PUBLIC, b"garbage raw encoding")
            batch = (good[:3] + [forged, undecryptable, public_ok, public_bad]
                     + good[3:])
            for tx in batch:
                assert node.receive_transaction(tx)

            assert node.preverify_pending() == 7
            assert len(node.unverified) == 0
            admitted = [tx.tx_hash for tx in node.verified.pop_batch()]
            assert admitted == [tx.tx_hash
                                for tx in good[:3] + [public_ok] + good[3:]]
        finally:
            node.close()
