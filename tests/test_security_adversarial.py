"""Adversarial tests for the §3.3 security considerations.

"A malicious host may trigger enclave's computation with incorrect or
stale data ... reorder the transactions to observe execution results ...
discard some transactions or even roll back the data in local database."

Each test plays one of those adversaries and checks the defense:
AEAD integrity + AAD binding (D-Protocol), state-continuity via the
consensus quorum on state roots, quote verification (K-Protocol), and
ciphertext-only storage.
"""

import pytest

from conftest import (
    COUNTER_SOURCE,
    deploy_confidential,
    run_confidential,
)
from repro.chain.consensus import PBFTOrderer
from repro.chain.network import SINGLE_ZONE
from repro.chain.transaction import TX_CONFIDENTIAL, RawTransaction
from repro.core import ConfidentialEngine, bootstrap_founder, t_protocol
from repro.crypto.ecc import decode_point
from repro.errors import ChainError, EnclaveError
from repro.storage import MemoryKV, rlp
from repro.storage.merkle import state_root
from repro.workloads.clients import Client


def fresh_engine():
    engine = ConfidentialEngine(MemoryKV())
    bootstrap_founder(engine.km)
    engine.provision_from_km()
    return engine


class TestMaliciousStorage:
    """The host owns the KV store; it can flip any byte it likes."""

    def _deployed(self, client):
        engine = fresh_engine()
        address = deploy_confidential(engine, client, COUNTER_SOURCE)
        outcome = run_confidential(engine, client, address, "increment")
        assert outcome.receipt.success
        return engine, address

    def test_tampered_state_detected(self, client):
        engine, address = self._deployed(client)
        state_keys = [k for k, _ in engine.kv.items() if k.startswith(b"s:")]
        assert state_keys
        for key in state_keys:
            sealed = bytearray(engine.kv.get(key))
            sealed[-1] ^= 1
            engine.kv.put(key, bytes(sealed))
        engine.sdm.clear_cache()
        outcome = run_confidential(engine, client, address, "increment")
        assert not outcome.receipt.success
        assert "tag mismatch" in outcome.receipt.error.lower() or \
            "authentication" in type(outcome.receipt.error).__name__.lower() or \
            outcome.receipt.error  # AEAD failure surfaces as a failed receipt

    def test_tampered_code_detected(self, client):
        engine, address = self._deployed(client)
        blob = bytearray(engine.kv.get(b"c:" + address))
        blob[-1] ^= 1
        engine.kv.put(b"c:" + address, bytes(blob))
        engine.contracts.clear()  # force a reload from (tampered) storage
        outcome = run_confidential(engine, client, address, "increment")
        assert not outcome.receipt.success

    def test_cross_contract_ciphertext_swap_detected(self, client):
        """AAD binds ciphertext to a contract identity: the host cannot
        graft contract A's encrypted state under contract B's keys."""
        engine = fresh_engine()
        addr_a = deploy_confidential(engine, client, COUNTER_SOURCE)
        addr_b = deploy_confidential(engine, client, COUNTER_SOURCE)
        for _ in range(2):
            assert run_confidential(engine, client, addr_a, "increment").receipt.success
        assert run_confidential(engine, client, addr_b, "increment").receipt.success
        # Swap B's counter ciphertext with A's (A is at 2, B at 1).
        key_a = b"s:" + addr_a + b"/" + b"count"
        key_b = b"s:" + addr_b + b"/" + b"count"
        engine.kv.put(key_b, engine.kv.get(key_a))
        engine.sdm.clear_cache()
        outcome = run_confidential(engine, client, addr_b, "increment")
        assert not outcome.receipt.success

    def test_rollback_attack_caught_by_state_quorum(self, client):
        """A single node restoring a stale database diverges from the
        2f+1 quorum on the post-state root (state continuity, §3.3)."""
        engines = [fresh_engine() for _ in range(4)]
        # Share keys so replicas agree: re-provision from one founder.
        from repro.core import mutual_attested_provision
        from repro.tee import AttestationService

        engines = []
        service = AttestationService()
        founder = ConfidentialEngine(MemoryKV())
        service.register_platform(founder.platform)
        bootstrap_founder(founder.km)
        km_founder = founder.km
        engines.append(founder)
        for _ in range(3):
            engine = ConfidentialEngine(MemoryKV())
            service.register_platform(engine.platform)
            mutual_attested_provision(km_founder, engine.km, service)
            engines.append(engine)
        for engine in engines:
            engine.provision_from_km()

        pk = decode_point(engines[0].pk_tx)
        from repro.lang import compile_source
        artifact = compile_source(COUNTER_SOURCE, "wasm")
        deploy_tx, address = client.confidential_deploy(pk, artifact)
        tx1 = client.confidential_call(pk, address, "increment", b"")
        tx2 = client.confidential_call(pk, address, "increment", b"")

        # Everyone executes block 1 (deploy + tx1).
        for engine in engines:
            assert engine.execute(deploy_tx).receipt.success
            assert engine.execute(tx1).receipt.success
        # Node 3 rolls its database back to the post-deploy state: the
        # deploy wrote no counter yet, so the rollback deletes the key.
        engines[3].kv.delete(b"s:" + address + b"/" + b"count")
        engines[3].sdm.clear_cache()
        engines[3].contracts.clear()

        # Everyone executes tx2; node 3 computes on stale state.
        for engine in engines:
            engine.execute(tx2)
        from repro.chain.node import consensus_state
        roots = [state_root(consensus_state(e.kv)) for e in engines]
        orderer = PBFTOrderer([0, 0, 0, 0], SINGLE_ZONE)
        agreed = orderer.verify_state_roots(roots)
        assert roots[3] != agreed, "the rolled-back node must diverge"
        assert roots[0] == roots[1] == roots[2] == agreed

    def test_storage_is_ciphertext_only(self, client):
        engine = fresh_engine()
        address = deploy_confidential(engine, client, COUNTER_SOURCE)
        run_confidential(engine, client, address, "increment")
        for key, value in engine.kv.items():
            if key.startswith((b"s:", b"c:")):
                assert b"count" not in value
                assert b"CWSM" not in value


class TestReorderingAdversary:
    def test_nonces_pin_per_sender_order(self, client):
        """Reordering one sender's transactions is rejected by nonce
        monotonicity (the engine-level defense; consensus pins the
        global order)."""
        engine = fresh_engine()
        address = deploy_confidential(engine, client, COUNTER_SOURCE)
        pk = decode_point(engine.pk_tx)
        tx_a = client.confidential_call(pk, address, "increment", b"")
        tx_b = client.confidential_call(pk, address, "increment", b"")
        # Malicious orderer plays tx_b first: it executes (nonce gap is
        # allowed forward), but tx_a afterwards is a replay-from-the-past
        # and must fail.
        assert engine.execute(tx_b).receipt.success
        outcome = engine.execute(tx_a)
        assert not outcome.receipt.success
        assert "nonce" in outcome.receipt.error


class TestEnclaveIsolation:
    def test_keys_unreachable_from_host(self, client):
        engine = fresh_engine()
        with pytest.raises(EnclaveError):
            _ = engine.cs.trusted

    def test_host_cannot_install_a_verdict(self, client):
        """§3.3: "a malicious host may trigger enclave's computation with
        incorrect ... data".  An *unsigned* call naming ``client`` as
        sender, sealed under the public pk_tx with a k_tx the host chose,
        must fail its signature check however the host tries to prime
        the pre-verification cache."""
        engine = fresh_engine()
        address = deploy_confidential(engine, client, COUNTER_SOURCE)
        host_root_key = b"host-chosen-root-key"
        raw = RawTransaction(sender=client.address, contract=address,
                             method="increment", args=b"",
                             nonce=client.nonce + 1)
        tx = t_protocol.seal_transaction(decode_point(engine.pk_tx), raw,
                                         host_root_key)
        k_tx = t_protocol.derive_tx_key(host_root_key, raw.tx_hash)
        # A verdict record: (tx hash, type, verified, k_tx, decrypt ns,
        # verify ns).
        record = rlp.encode([tx.tx_hash, rlp.encode_int(TX_CONFIDENTIAL),
                             b"\x01", k_tx, rlp.encode_int(0),
                             rlp.encode_int(0)])
        with pytest.raises(EnclaveError):
            engine.cs.ecall("install_preverified", rlp.encode([record]))
        outcome = engine.execute(tx)
        assert not outcome.receipt.success
        assert outcome.receipt.error == "invalid signature"

    def test_declared_ecalls_are_pinned(self):
        """The ecalls are the enclaves' whole host-facing surface.  A new
        one — one that accepts a verdict or returns a key, say — has to
        be added to these sets on purpose."""
        engine = fresh_engine()
        assert set(engine.cs._interface.ecalls) == {
            "execute", "export_role_key", "install_keys", "preverify",
            "preverify_batch", "query",
        }
        assert set(engine.km._interface.ecalls) == {
            "begin_exchange", "export_keys", "finish_exchange",
            "generate_keys", "provision_cs", "public_key", "seal_keys",
            "unseal_keys",
        }

    def test_query_cannot_mutate(self, client):
        engine = fresh_engine()
        address = deploy_confidential(engine, client, COUNTER_SOURCE)
        before = dict(engine.kv.items())
        engine.call_readonly(address, "increment", b"")
        assert dict(engine.kv.items()) == before
