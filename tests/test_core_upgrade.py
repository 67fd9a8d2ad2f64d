"""Contract upgrade tests: owner gating, security-version bumps,
state migration, and the code-downgrade defense."""

import pytest

from conftest import (
    COUNTER_SOURCE,
    deploy_confidential,
    deploy_public,
    restart_enclave,
    run_confidential,
    run_public,
)
from repro.crypto.ecc import decode_point
from repro.lang import compile_source
from repro.storage import rlp
from repro.workloads.clients import Client

# v2 of the counter: increments by 10 instead of 1.
COUNTER_V2 = COUNTER_SOURCE.replace("store64(buf, v + 1);", "store64(buf, v + 10);")


def upgrade_public(engine, client, address, source):
    artifact = compile_source(source, "wasm")
    raw = client.upgrade_raw(address, artifact)
    return engine.execute(Client.public(raw))


def upgrade_confidential(engine, client, address, source):
    artifact = compile_source(source, "wasm")
    raw = client.upgrade_raw(address, artifact)
    pk = decode_point(engine.pk_tx)
    return engine.execute(client.seal(pk, raw))


class TestPublicUpgrade:
    def test_new_code_runs_after_upgrade(self, public_engine, client):
        address = deploy_public(public_engine, client, COUNTER_SOURCE)
        run_public(public_engine, client, address, "increment")
        outcome = upgrade_public(public_engine, client, address, COUNTER_V2)
        assert outcome.receipt.success, outcome.receipt.error
        outcome = run_public(public_engine, client, address, "increment")
        assert int.from_bytes(outcome.receipt.output, "big") == 11

    def test_non_owner_rejected(self, public_engine, client):
        address = deploy_public(public_engine, client, COUNTER_SOURCE)
        intruder = Client.from_seed(b"intruder")
        raw = intruder.upgrade_raw(address, compile_source(COUNTER_V2, "wasm"))
        outcome = public_engine.execute(Client.public(raw))
        assert not outcome.receipt.success
        assert "owner" in outcome.receipt.error

    def test_version_persists_across_reload(self, public_engine, client):
        address = deploy_public(public_engine, client, COUNTER_SOURCE)
        upgrade_public(public_engine, client, address, COUNTER_V2)
        public_engine.contracts.clear()
        record = public_engine._get_record(address)
        assert record.security_version == 2


class TestConfidentialUpgrade:
    def test_state_survives_upgrade(self, confidential_engine, client):
        address = deploy_confidential(confidential_engine, client, COUNTER_SOURCE)
        for _ in range(3):
            run_confidential(confidential_engine, client, address, "increment")
        outcome = upgrade_confidential(
            confidential_engine, client, address, COUNTER_V2
        )
        assert outcome.receipt.success, outcome.receipt.error
        engine = restart_enclave(confidential_engine)
        outcome = run_confidential(engine, client, address, "increment")
        assert outcome.receipt.success, outcome.receipt.error
        assert int.from_bytes(outcome.receipt.output, "big") == 13  # 3 + 10

    def test_non_owner_rejected(self, confidential_engine, client):
        address = deploy_confidential(confidential_engine, client, COUNTER_SOURCE)
        intruder = Client.from_seed(b"intruder")
        pk = decode_point(confidential_engine.pk_tx)
        raw = intruder.upgrade_raw(address, compile_source(COUNTER_V2, "wasm"))
        outcome = confidential_engine.execute(intruder.seal(pk, raw))
        assert not outcome.receipt.success
        assert "owner" in outcome.receipt.error

    def test_code_downgrade_cannot_read_new_state(self, confidential_engine, client):
        """The downgrade defense: a host restoring the v1 code blob gets
        code that decrypts (it carries version 1 in its own AAD) but can
        no longer open the state, which is sealed under version 2."""
        address = deploy_confidential(confidential_engine, client, COUNTER_SOURCE)
        run_confidential(confidential_engine, client, address, "increment")
        old_code_blob = confidential_engine.kv.get(b"c:" + address)
        outcome = upgrade_confidential(
            confidential_engine, client, address, COUNTER_V2
        )
        assert outcome.receipt.success
        # Malicious host restores the old code blob.
        confidential_engine.kv.put(b"c:" + address, old_code_blob)
        engine = restart_enclave(confidential_engine)
        outcome = run_confidential(engine, client, address, "increment")
        assert not outcome.receipt.success  # v1 AAD cannot open v2 state

    def test_old_state_ciphertext_replay_fails_after_upgrade(
        self, confidential_engine, client
    ):
        address = deploy_confidential(confidential_engine, client, COUNTER_SOURCE)
        run_confidential(confidential_engine, client, address, "increment")
        state_key = b"s:" + address + b"/" + b"count"
        stale = confidential_engine.kv.get(state_key)
        upgrade_confidential(confidential_engine, client, address, COUNTER_V2)
        # Host rolls the state back to the pre-upgrade ciphertext.
        confidential_engine.kv.put(state_key, stale)
        engine = restart_enclave(confidential_engine)
        outcome = run_confidential(engine, client, address, "increment")
        assert not outcome.receipt.success

    def test_upgraded_record_reloads_from_storage(self, confidential_engine, client):
        address = deploy_confidential(confidential_engine, client, COUNTER_SOURCE)
        upgrade_confidential(confidential_engine, client, address, COUNTER_V2)
        engine = restart_enclave(confidential_engine)
        # Reload happens inside the enclave (record load needs ocalls).
        value = engine.call_readonly(address, "read", b"")
        assert int.from_bytes(value, "big") == 0
        # The owner and version travel in plaintext ahead of the sealed
        # code, as the AAD the enclave rebuilds to open it.
        _owner, version, _sealed = rlp.decode(engine.kv.get(b"c:" + address))
        assert rlp.decode_int(version) == 2
        outcome = run_confidential(engine, client, address, "increment")
        assert int.from_bytes(outcome.receipt.output, "big") == 10  # v2 code

    def test_replicas_agree_after_upgrade(self, client):
        from repro.core import (
            ConfidentialEngine,
            bootstrap_founder,
            mutual_attested_provision,
        )
        from repro.storage import MemoryKV
        from repro.tee import AttestationService

        kv_a, kv_b = MemoryKV(), MemoryKV()
        a, b = ConfidentialEngine(kv_a), ConfidentialEngine(kv_b)
        service = AttestationService()
        service.register_platform(a.platform)
        service.register_platform(b.platform)
        bootstrap_founder(a.km)
        mutual_attested_provision(a.km, b.km, service)
        a.provision_from_km()
        b.provision_from_km()
        pk = decode_point(a.pk_tx)

        artifact_v1 = compile_source(COUNTER_SOURCE, "wasm")
        artifact_v2 = compile_source(COUNTER_V2, "wasm")
        deploy_tx, address = client.confidential_deploy(pk, artifact_v1)
        inc1 = client.confidential_call(pk, address, "increment", b"")
        upgrade_tx = client.seal(pk, client.upgrade_raw(address, artifact_v2))
        inc2 = client.confidential_call(pk, address, "increment", b"")
        for engine in (a, b):
            for tx in (deploy_tx, inc1, upgrade_tx, inc2):
                outcome = engine.execute(tx)
                assert outcome.receipt.success, outcome.receipt.error
        from repro.chain.node import consensus_state
        assert consensus_state(kv_a) == consensus_state(kv_b)
