"""A larger end-to-end scenario: multi-block mixed workload through the
round-running consortium — the closest thing to the production service
in one test."""

import pytest

from repro.chain.node import Consortium, build_consortium, consensus_state
from repro.lang import compile_source
from repro.workloads import (
    Client,
    abs_workload,
    coldchain_workload,
    encode_register,
)


@pytest.fixture(scope="module")
def busy_world():
    nodes, _ = build_consortium(4)
    consortium = Consortium(nodes)
    issuer = Client.from_seed(b"scale-issuer")
    carrier = Client.from_seed(b"scale-carrier")
    pk = nodes[0].pk_tx

    abs_w = abs_workload("flatbuffers")
    abs_artifact = compile_source(abs_w.source, "wasm")
    cold_w = coldchain_workload(num_shipments=3)
    cold_artifact = compile_source(cold_w.source, "wasm")

    abs_tx, abs_addr = issuer.confidential_deploy(
        pk, abs_artifact, abs_w.schema_source
    )
    cold_tx, cold_addr = carrier.confidential_deploy(pk, cold_artifact)
    consortium.broadcast(abs_tx)
    consortium.broadcast(cold_tx)
    consortium.run_round(max_bytes=1 << 20)

    for i in range(3):
        consortium.broadcast(carrier.confidential_call(
            pk, cold_addr, "register",
            encode_register(f"SHIP{i:04d}".encode(), 0, 100),
        ))
    consortium.run_round(max_bytes=1 << 20)

    # 18 mixed business transactions over several 4 KB blocks.
    for i in range(12):
        consortium.broadcast(issuer.confidential_call(
            pk, abs_addr, abs_w.method, abs_w.make_input(i)
        ))
    for i in range(6):
        consortium.broadcast(carrier.confidential_call(
            pk, cold_addr, cold_w.method, cold_w.make_input(i)
        ))
    rounds = consortium.run_until_empty(max_bytes=4096)
    return consortium, abs_addr, cold_addr, rounds


class TestScaleScenario:
    def test_multiple_blocks_produced(self, busy_world):
        consortium, _, _, rounds = busy_world
        assert rounds >= 3  # 4 KB blocks can't hold 18 ~1 KB txs at once
        assert consortium.height >= 5

    def test_every_block_successful_everywhere(self, busy_world):
        consortium, *_ = busy_world
        hashes_per_height = [
            {node.header_at(h).block_hash for node in consortium.nodes}
            for h in range(1, consortium.height + 1)
        ]
        assert all(len(hashes) == 1 for hashes in hashes_per_height)

    def test_consensus_state_identical(self, busy_world):
        consortium, *_ = busy_world
        states = [consensus_state(node.kv) for node in consortium.nodes]
        assert all(state == states[0] for state in states[1:])

    def test_application_state_correct(self, busy_world):
        from repro.workloads import decode_status

        consortium, abs_addr, cold_addr, _ = busy_world
        node = consortium.nodes[1]
        # Cold chain: shipment 0 received readings with indices 0,3 -> 2 readings.
        status = node.confidential.call_readonly(
            cold_addr, "status", b"SHIP0000"
        )
        count, compliant = decode_status(status)
        assert count == 2
        assert compliant is True

    def test_no_plaintext_leaks_at_scale(self, busy_world):
        consortium, *_ = busy_world
        for node in consortium.nodes:
            for key, value in node.kv.items():
                if key.startswith((b"s:", b"c:")) and not key.endswith(b"#pub"):
                    assert b"INST_A" not in value
                    assert b"debtor-" not in value
