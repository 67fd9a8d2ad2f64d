"""Adversarial tests for the §3.3 security considerations.

"A malicious host may trigger enclave's computation with incorrect or
stale data ... reorder the transactions to observe execution results ...
discard some transactions or even roll back the data in local database."

Each test plays one of those adversaries and checks the defense:
AEAD integrity + AAD binding (D-Protocol), state-continuity via the
consensus quorum on state roots, quote verification (K-Protocol), and
ciphertext-only storage.
"""

import gc
import json
import types

import pytest

from conftest import (
    COUNTER_SOURCE,
    deploy_confidential,
    restart_enclave,
    run_confidential,
)
from repro.chain.consensus import PBFTOrderer
from repro.chain.node import Node
from repro.chain.network import SINGLE_ZONE
from repro.chain.transaction import TX_CONFIDENTIAL, RawTransaction
from repro.core import (
    ConfidentialEngine,
    KMEnclave,
    bootstrap_founder,
    t_protocol,
)
from repro.crypto.ecc import decode_point
from repro.errors import ChainError, EnclaveError
from repro.lang import compile_source
from repro.serve.gateway import Gateway, GatewayConfig
from repro.storage import MemoryKV, rlp
from repro.storage.merkle import state_root
from repro.tee.enclave import Enclave
from repro.workloads.clients import Client
from repro.workloads.coldchain import (
    COLDCHAIN_CONTRACT,
    COLDCHAIN_SCHEMA_SOURCE,
    encode_reading,
    encode_register,
)
from repro.workloads.mix import CANARY_TAG


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
        engine = restart_enclave(engine)
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
        engine = restart_enclave(engine)  # reload from (tampered) storage
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
        engine = restart_enclave(engine)
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
        engines[3] = restart_enclave(engines[3])

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


def _host_reachable(*roots) -> list:
    """Every object the host reaches from ``roots`` through
    ``gc.get_referents``.  An enclave's only host doors are ``ecall``
    and its ocall table, so the walk never enters an :class:`Enclave`;
    nor a module, class, function or code object (shared program text,
    not this node's state).  A bound method is entered only through
    ``__self__``."""
    skip = (Enclave, types.ModuleType, type, types.FunctionType,
            types.CodeType)
    seen: set[int] = set()
    stack, reached = list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        reached.append(obj)
        if isinstance(obj, types.MethodType):
            stack.append(obj.__self__)
        else:
            stack.extend(gc.get_referents(obj))
    return reached


class TestEnclaveIsolation:
    def test_keys_unreachable_from_host(self, client):
        """§3.3's host owns every byte outside the enclave.  After sealed
        coldchain calls commit through a gateway, nothing the host can
        reach from the gateway and its node — caches included — holds a
        canary state value, a transaction's k_tx, sk_tx, k_states or the
        confidential contract code."""
        engine = fresh_engine()
        with pytest.raises(EnclaveError):
            _ = engine.cs.trusted

        node = Node(0)
        bootstrap_founder(node.confidential.km)
        node.confidential.provision_from_km()
        gateway = Gateway(node, GatewayConfig())
        artifact = compile_source(COLDCHAIN_CONTRACT, "wasm")
        sender = Client.from_seed(b"reachability")
        deploy, contract = sender.deploy_raw(artifact,
                                             COLDCHAIN_SCHEMA_SOURCE)
        raws = [deploy, sender.call_raw(contract, "register",
                                        encode_register(b"SHIP0001", -100,
                                                        100))]
        raws += [sender.call_raw(contract, "record",
                                 encode_reading(b"SHIP0001", 20 + i,
                                                CANARY_TAG))
                 for i in range(4)]
        try:
            for tx in [sender.seal(node.pk_tx, raw) for raw in raws]:
                response = json.loads(gateway.handle_raw(json.dumps({
                    "jsonrpc": "2.0", "id": 1, "method": "submit_tx",
                    "params": {"tx": tx.encode().hex()},
                }).encode(), "reachability"))
                assert response["result"]["accepted"], response
                assert gateway.produce_block() is not None
            assert node.height == len(raws)

            # The oracle: the node's keys, unsealed from its own store by
            # a KM enclave on the same platform.
            oracle = KMEnclave(node.confidential.platform, "oracle")
            oracle.ecall("unseal_keys", node.kv.get(b"km:sealed-keys"))
            sk_tx = oracle._trusted_state["sk_tx"].private
            k_states = oracle._trusted_state["k_states"]
            oracle.destroy()
            needles = {
                "canary": CANARY_TAG,
                "k_states": k_states,
                "sk_tx": sk_tx.to_bytes(32, "big"),
                "contract code": artifact.code,
                **{f"k_tx #{i}": sender.tx_key_for(raw.tx_hash)
                   for i, raw in enumerate(raws)},
            }
            found = set()
            for obj in _host_reachable(gateway, node):
                if isinstance(obj, int) and not isinstance(obj, bool):
                    if obj == sk_tx:
                        found.add("sk_tx")
                elif isinstance(obj, (bytes, bytearray)):
                    found.update(name for name, needle in needles.items()
                                 if needle in obj)
            assert not found, f"host memory holds {sorted(found)}"
        finally:
            gateway.close()

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
            "execute", "export_role_key", "grant_access", "install_keys",
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
