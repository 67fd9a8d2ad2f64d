"""Engine tests: public and confidential execution, rollback, nonces,
encrypted persistence, receipts, stats."""

import pytest

from conftest import (
    COUNTER_SOURCE,
    deploy_confidential,
    deploy_public,
    run_confidential,
    run_public,
)
from repro.chain.node import Node
from repro.chain.transaction import RawTransaction, Transaction
from repro.core import ConfidentialEngine, Receipt, bootstrap_founder, t_protocol
from repro.core import engine as engine_mod
from repro.core.config import EngineConfig
from repro.core.stats import CONTRACT_CALL, GET_STORAGE, SET_STORAGE
from repro.crypto.ecc import decode_point
from repro.errors import ProtocolError
from repro.storage import MemoryKV
from repro.workloads.clients import Client

ROLLBACK_SOURCE = """
fn write_then_fail() {
    let v = alloc(8);
    store64(v, 999);
    storage_set("poison", 6, v, 8);
    abort("rolled back", 11);
}
fn read_poison() {
    let v = alloc(8);
    let n = storage_get("poison", 6, v, 8);
    let out = alloc(8);
    store64(out, n == 8);
    output(out, 8);
}
"""


class TestPublicEngine:
    def test_deploy_and_call(self, public_engine, client):
        address = deploy_public(public_engine, client, COUNTER_SOURCE)
        outcome = run_public(public_engine, client, address, "increment")
        assert outcome.receipt.success
        assert int.from_bytes(outcome.receipt.output, "big") == 1

    def test_state_persists_between_txs(self, public_engine, client):
        address = deploy_public(public_engine, client, COUNTER_SOURCE)
        for expected in (1, 2, 3):
            outcome = run_public(public_engine, client, address, "increment")
            assert int.from_bytes(outcome.receipt.output, "big") == expected

    def test_nonce_replay_rejected(self, public_engine, client):
        address = deploy_public(public_engine, client, COUNTER_SOURCE)
        raw = client.call_raw(address, "increment", b"")
        assert public_engine.execute(Client.public(raw)).receipt.success
        replay = public_engine.execute(Client.public(raw))
        assert not replay.receipt.success
        assert "nonce" in replay.receipt.error

    def test_bad_signature_rejected(self, public_engine, client):
        address = deploy_public(public_engine, client, COUNTER_SOURCE)
        raw = client.call_raw(address, "increment", b"")
        forged = RawTransaction(
            sender=raw.sender, contract=raw.contract, method=raw.method,
            args=b"tampered", nonce=raw.nonce, pubkey=raw.pubkey,
            signature=raw.signature,
        )
        outcome = public_engine.execute(Transaction.public(forged))
        assert not outcome.receipt.success
        assert "signature" in outcome.receipt.error

    def test_failed_tx_rolls_back_state(self, public_engine, client):
        address = deploy_public(public_engine, client, ROLLBACK_SOURCE)
        outcome = run_public(public_engine, client, address, "write_then_fail")
        assert not outcome.receipt.success
        check = run_public(public_engine, client, address, "read_poison")
        assert int.from_bytes(check.receipt.output, "big") == 0

    def test_call_to_missing_contract(self, public_engine, client):
        outcome = run_public(public_engine, client, b"\x99" * 20, "anything")
        assert not outcome.receipt.success
        assert "no contract" in outcome.receipt.error

    def test_missing_method(self, public_engine, client):
        address = deploy_public(public_engine, client, COUNTER_SOURCE)
        outcome = run_public(public_engine, client, address, "ghost")
        assert not outcome.receipt.success

    def test_read_write_sets_collected(self, public_engine, client):
        address = deploy_public(public_engine, client, COUNTER_SOURCE)
        outcome = run_public(public_engine, client, address, "increment")
        assert len(outcome.read_set) == 1
        assert len(outcome.write_set) == 1

    def test_preverification_cache(self, public_engine, client):
        address = deploy_public(public_engine, client, COUNTER_SOURCE)
        raw = client.call_raw(address, "increment", b"")
        tx = Client.public(raw)
        assert public_engine.preverify(tx)
        verify_count = public_engine.stats.count("Transaction Verify")
        outcome = public_engine.execute(tx)
        assert outcome.receipt.success
        # No re-verification at execution time.
        assert public_engine.stats.count("Transaction Verify") == verify_count

    def test_refused_transactions_leave_no_verdict(self, client):
        node = Node(0)
        raw = client.call_raw(b"\x42" * 20, "increment", b"")
        for i in range(50):
            forged = RawTransaction(
                sender=raw.sender, contract=raw.contract, method=raw.method,
                args=b"tampered-%d" % i, nonce=raw.nonce, pubkey=raw.pubkey,
                signature=raw.signature,
            )
            node.receive_transaction(Transaction.public(forged))
        assert node.preverify_pending() == 0
        assert node.public._verified == {}

    def test_kept_verdicts_are_bounded_oldest_first(self, public_engine, client,
                                                    monkeypatch):
        monkeypatch.setattr(engine_mod, "_VERDICT_CAPACITY", 3)
        address = deploy_public(public_engine, client, COUNTER_SOURCE)
        txs = [Client.public(client.call_raw(address, "increment", b""))
               for _ in range(5)]
        assert all(public_engine.preverify(tx) for tx in txs)
        assert list(public_engine._verified) == [tx.tx_hash for tx in txs[2:]]
        # A dropped verdict costs one re-verification, not the transaction.
        verify_count = public_engine.stats.count("Transaction Verify")
        assert public_engine.execute(txs[0]).receipt.success
        assert public_engine.stats.count("Transaction Verify") == verify_count + 1
        assert public_engine.execute(txs[2]).receipt.success
        assert public_engine.stats.count("Transaction Verify") == verify_count + 1


class TestConfidentialEngine:
    def test_requires_provisioned_keys(self):
        engine = ConfidentialEngine(MemoryKV())
        with pytest.raises(ProtocolError):
            _ = engine.pk_tx

    def test_rejects_public_transactions(self, confidential_engine, client):
        raw = client.call_raw(b"\x01" * 20, "x", b"")
        with pytest.raises(ProtocolError):
            confidential_engine.execute(Client.public(raw))

    def test_deploy_and_call(self, confidential_engine, client):
        address = deploy_confidential(confidential_engine, client, COUNTER_SOURCE)
        outcome = run_confidential(confidential_engine, client, address, "increment")
        assert outcome.receipt.success
        assert outcome.sealed_receipt is not None

    def test_state_is_ciphertext_in_kv(self, confidential_engine, client):
        address = deploy_confidential(confidential_engine, client, COUNTER_SOURCE)
        run_confidential(confidential_engine, client, address, "increment")
        state_entries = [
            (k, v) for k, v in confidential_engine.kv.items()
            if k.startswith(b"s:")
        ]
        assert state_entries
        for _, value in state_entries:
            # plaintext would be exactly 8 bytes (the counter)
            assert len(value) > 8
            assert (1).to_bytes(8, "big") not in value

    def test_code_is_ciphertext_in_kv(self, confidential_engine, client):
        address = deploy_confidential(confidential_engine, client, COUNTER_SOURCE)
        blob = confidential_engine.kv.get(b"c:" + address)
        assert blob is not None
        assert b"CWSM" not in blob  # module magic must not leak

    def test_sealed_receipt_opens_with_k_tx(self, confidential_engine, client):
        address = deploy_confidential(confidential_engine, client, COUNTER_SOURCE)
        pk = decode_point(confidential_engine.pk_tx)
        raw = client.call_raw(address, "increment", b"")
        tx = client.seal(pk, raw)
        outcome = confidential_engine.execute(tx)
        receipt = client.open_receipt(raw.tx_hash, outcome.sealed_receipt)
        assert receipt.success
        assert int.from_bytes(receipt.output, "big") == 1

    def test_receipt_unreadable_without_k_tx(self, confidential_engine, client):
        address = deploy_confidential(confidential_engine, client, COUNTER_SOURCE)
        pk = decode_point(confidential_engine.pk_tx)
        raw = client.call_raw(address, "increment", b"")
        outcome = confidential_engine.execute(client.seal(pk, raw))
        stranger = Client.from_seed(b"stranger")
        with pytest.raises(Exception):
            stranger.open_receipt(raw.tx_hash, outcome.sealed_receipt)

    def test_garbage_envelope_yields_failed_receipt(self, confidential_engine):
        tx = Transaction(1, b"not a real envelope")
        outcome = confidential_engine.execute(tx)
        assert not outcome.receipt.success
        assert "undecryptable" in outcome.receipt.error

    def test_failed_tx_rolls_back(self, confidential_engine, client):
        address = deploy_confidential(confidential_engine, client, ROLLBACK_SOURCE)
        outcome = run_confidential(
            confidential_engine, client, address, "write_then_fail"
        )
        assert not outcome.receipt.success
        check = run_confidential(confidential_engine, client, address, "read_poison")
        assert int.from_bytes(check.receipt.output, "big") == 0

    def test_preverification_fast_path(self, confidential_engine, client):
        address = deploy_confidential(confidential_engine, client, COUNTER_SOURCE)
        pk = decode_point(confidential_engine.pk_tx)
        tx = client.confidential_call(pk, address, "increment", b"")
        assert confidential_engine.preverify(tx)
        pre = confidential_engine.preprocessor
        assert pre.preverified >= 1
        outcome = confidential_engine.execute(tx)
        assert outcome.receipt.success
        assert pre.cache_hits >= 1

    def test_batch_preverification_single_ecall(self, confidential_engine, client):
        address = deploy_confidential(confidential_engine, client, COUNTER_SOURCE)
        pk = decode_point(confidential_engine.pk_tx)
        txs = [
            client.confidential_call(pk, address, "increment", b"")
            for _ in range(5)
        ]
        ecalls_before = confidential_engine.platform.accountant.ecalls
        verdicts = confidential_engine.preverify_batch(txs)
        assert verdicts == [True] * 5
        assert confidential_engine.platform.accountant.ecalls == ecalls_before + 1
        # All cached: executions hit the fast path.
        for tx in txs:
            outcome = confidential_engine.execute(tx)
            assert outcome.receipt.success
        assert confidential_engine.preprocessor.cache_hits >= 5

    def test_batch_preverification_flags_invalid(self, confidential_engine, client):
        from repro.chain.transaction import Transaction

        address = deploy_confidential(confidential_engine, client, COUNTER_SOURCE)
        pk = decode_point(confidential_engine.pk_tx)
        good = client.confidential_call(pk, address, "increment", b"")
        verdicts = confidential_engine.preverify_batch(
            [good, Transaction(1, b"garbage")]
        )
        assert verdicts == [True, False]

    def test_readonly_query(self, confidential_engine, client):
        address = deploy_confidential(confidential_engine, client, COUNTER_SOURCE)
        run_confidential(confidential_engine, client, address, "increment")
        value = confidential_engine.call_readonly(address, "read", b"")
        assert int.from_bytes(value, "big") == 1

    def test_readonly_query_discards_writes(self, confidential_engine, client):
        address = deploy_confidential(confidential_engine, client, COUNTER_SOURCE)
        confidential_engine.call_readonly(address, "increment", b"")
        value = confidential_engine.call_readonly(address, "read", b"")
        assert int.from_bytes(value, "big") == 0

    def test_stats_recorded(self, confidential_engine, client):
        address = deploy_confidential(confidential_engine, client, COUNTER_SOURCE)
        confidential_engine.stats.reset()
        run_confidential(confidential_engine, client, address, "increment")
        stats = confidential_engine.stats
        assert stats.count(CONTRACT_CALL) == 1
        assert stats.count(GET_STORAGE) == 1
        assert stats.count(SET_STORAGE) == 1

    def test_receipt_carries_contract_logs(self, confidential_engine, client):
        source = 'fn main() { log("evt-a", 5); log("evt-b", 5); }'
        address = deploy_confidential(confidential_engine, client, source)
        outcome = run_confidential(confidential_engine, client, address, "main")
        assert outcome.receipt.logs == (b"evt-a", b"evt-b")

    def test_km_enclave_destroyed_after_provisioning(self, confidential_engine):
        assert confidential_engine.km.destroyed

    def test_tee_overhead_accrues(self, confidential_engine, client):
        before = confidential_engine.platform.accountant.cycles
        address = deploy_confidential(confidential_engine, client, COUNTER_SOURCE)
        run_confidential(confidential_engine, client, address, "increment")
        assert confidential_engine.platform.accountant.cycles > before


class TestReplication:
    def test_two_nodes_identical_ciphertext_state(self, client):
        from repro.core import mutual_attested_provision
        from repro.tee import AttestationService

        kv_a, kv_b = MemoryKV(), MemoryKV()
        engine_a = ConfidentialEngine(kv_a)
        engine_b = ConfidentialEngine(kv_b)
        service = AttestationService()
        service.register_platform(engine_a.platform)
        service.register_platform(engine_b.platform)
        bootstrap_founder(engine_a.km)
        mutual_attested_provision(engine_a.km, engine_b.km, service)
        pk_a = engine_a.provision_from_km()
        pk_b = engine_b.provision_from_km()
        assert pk_a == pk_b

        pk = decode_point(pk_a)
        from repro.lang import compile_source
        artifact = compile_source(COUNTER_SOURCE, "wasm")
        txs = []
        deploy_tx, _ = client.confidential_deploy(pk, artifact)
        txs.append(deploy_tx)
        from repro.chain.transaction import contract_address
        address = contract_address(client.address, 1)
        for _ in range(3):
            txs.append(client.confidential_call(pk, address, "increment", b""))
        for engine in (engine_a, engine_b):
            for tx in txs:
                outcome = engine.execute(tx)
                assert outcome.receipt.success, outcome.receipt.error
        from repro.chain.node import consensus_state
        assert consensus_state(kv_a) == consensus_state(kv_b)

    def test_config_without_optimizations_still_correct(self, client):
        config = EngineConfig().without_optimizations()
        engine = ConfidentialEngine(MemoryKV(), config)
        bootstrap_founder(engine.km)
        engine.provision_from_km()
        address = deploy_confidential(engine, client, COUNTER_SOURCE)
        for expected in (1, 2):
            outcome = run_confidential(engine, client, address, "increment")
            assert outcome.receipt.success
            assert int.from_bytes(outcome.receipt.output, "big") == expected
