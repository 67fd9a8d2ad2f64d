"""End-to-end integration: a 4-node consortium running the SCF-AR suite
with mixed public/confidential traffic, consensus checks, SPV reads, and
an audit path over CCLe public fields."""

import pytest

from repro.ccle import decode as ccle_decode
from repro.chain import spv
from repro.chain.consensus import PBFTOrderer
from repro.chain.network import SINGLE_ZONE
from repro.chain.node import build_consortium
from repro.core import Receipt, t_protocol
from repro.lang import compile_source
from repro.workloads import (
    ABS_SCHEMA,
    Client,
    ScfSuite,
    abs_workload,
    make_transfer_input,
    setup_plan,
)


@pytest.fixture(scope="module")
def world():
    nodes, service = build_consortium(4)
    operator = Client.from_seed(b"operator")
    pk = nodes[0].pk_tx

    # Deploy the SCF suite + the ABS contract, all confidential.
    suite = ScfSuite.compile("wasm")
    deploy_txs = []
    addresses = {}
    for name, artifact in suite.artifacts.items():
        tx, address = operator.confidential_deploy(pk, artifact)
        deploy_txs.append(tx)
        addresses[name] = address
    abs_w = abs_workload("flatbuffers")
    abs_artifact = compile_source(abs_w.source, "wasm")
    tx, abs_address = operator.confidential_deploy(
        pk, abs_artifact, abs_w.schema_source
    )
    deploy_txs.append(tx)
    addresses["abs"] = abs_address

    setup_txs = [
        operator.confidential_call(pk, addresses[c], method, args)
        for c, method, args in setup_plan(addresses)
    ]

    business_txs = [
        operator.confidential_call(
            pk, addresses["gateway"], "transfer", make_transfer_input()
        ),
    ]
    for i in range(4):
        business_txs.append(
            operator.confidential_call(
                pk, addresses["abs"], "transfer_asset", abs_w.make_input(i)
            )
        )

    blocks = [deploy_txs, setup_txs, business_txs]
    for node in nodes:
        for batch in blocks:
            for tx in batch:
                node.receive_transaction(tx)
            node.preverify_pending()
            applied = node.apply_transactions(batch)
            for outcome in applied.report.outcomes:
                assert outcome.receipt.success, outcome.receipt.error
    return nodes, operator, addresses, business_txs


class TestConsensusAgreement:
    def test_all_nodes_same_chain(self, world):
        nodes, *_ = world
        for height in range(1, nodes[0].height + 1):
            assert len({n.header_at(height).block_hash for n in nodes}) == 1

    def test_state_roots_pass_quorum_check(self, world):
        nodes, *_ = world
        orderer = PBFTOrderer([n.zone for n in nodes], SINGLE_ZONE)
        roots = [n.header_at(3).state_root for n in nodes]
        orderer.verify_state_roots(roots)

    def test_full_consensus_state_identical(self, world):
        from repro.chain.node import consensus_state

        nodes, *_ = world
        snapshots = [consensus_state(n.kv) for n in nodes]
        assert all(s == snapshots[0] for s in snapshots[1:])


class TestConfidentialityEndToEnd:
    def test_no_business_plaintext_in_any_kv(self, world):
        nodes, *_ = world
        needles = (b"ACCT-001", b"debtor-", b"INST_A")
        for node in nodes:
            for key, value in node.kv.items():
                if key.startswith((b"s:", b"c:")) and not key.endswith(b"#pub"):
                    for needle in needles:
                        assert needle not in value, (key[:12], needle)

    def test_owner_reads_receipt_via_spv(self, world):
        nodes, operator, addresses, business_txs = world
        tx = business_txs[0]
        blob = spv.consensus_read_receipt(nodes, nodes[3], tx.tx_hash)
        opened = None
        for raw_hash, k_tx in operator._tx_keys.items():
            try:
                opened = Receipt.decode(t_protocol.open_receipt(k_tx, blob))
                break
            except Exception:
                continue
        assert opened is not None
        assert opened.success
        assert int.from_bytes(opened.output, "big") == sum(100 + s for s in range(7))

    def test_stranger_cannot_open_receipts(self, world):
        nodes, operator, addresses, business_txs = world
        blob = spv.consensus_read_receipt(nodes, nodes[0], business_txs[0].tx_hash)
        stranger = Client.from_seed(b"stranger")
        with pytest.raises(Exception):
            stranger.open_receipt(b"\x00" * 32, blob)


class TestParallelExecutionIntegration:
    def test_lane_report_present(self, world):
        nodes, operator, addresses, business_txs = world
        # Re-execute the ABS batch on a fresh node, then model 4 lanes
        # over its measured outcomes (the block report is measured only).
        from repro.chain.executor import lane_schedule
        from repro.chain.node import Node
        from repro.core import bootstrap_founder

        node = Node(0)
        bootstrap_founder(node.confidential.km)
        node.confidential.provision_from_km()
        pk = node.pk_tx
        client = Client.from_seed(b"lanes")
        abs_w = abs_workload("flatbuffers")
        artifact = compile_source(abs_w.source, "wasm")
        tx, address = client.confidential_deploy(pk, artifact, abs_w.schema_source)
        node.receive_transaction(tx)
        node.preverify_pending()
        node.apply_transactions(node.draft_block(max_bytes=1 << 20))
        for i in range(8):
            node.receive_transaction(client.confidential_call(
                pk, address, "transfer_asset", abs_w.make_input(i)))
        node.preverify_pending()
        applied = node.apply_transactions(node.draft_block(max_bytes=1 << 20))
        report = applied.report
        makespan, conflict_edges = lane_schedule(report.outcomes, 4)
        assert makespan < report.serial_duration_s
        assert conflict_edges > 0  # per-institution aggregates conflict
        # Two institutions bound the speedup near 2x.
        assert 1.2 < report.serial_duration_s / makespan < 3.5
