"""T-Protocol, D-Protocol, and K-Protocol tests."""

import pytest

from repro.chain.transaction import RawTransaction, TX_CONFIDENTIAL
from repro.core import (
    CentralizedKMS,
    bootstrap_founder,
    mutual_attested_provision,
    t_protocol,
)
from repro.core.d_protocol import StateAad, StateCipher
from repro.core.kmm import KMEnclave
from repro.crypto.keys import KeyPair
from repro.errors import (
    AttestationError,
    AuthenticationError,
    ProtocolError,
    ReproError,
)
from repro.tee import AttestationService, Platform


def make_raw(nonce=1):
    keypair = KeyPair.from_seed(b"proto-user")
    raw = RawTransaction(
        sender=b"\x01" * 20, contract=b"\x02" * 20,
        method="do", args=b"payload", nonce=nonce,
    )
    return raw.signed_by(keypair)


class TestTProtocol:
    def setup_method(self):
        self.engine_keys = KeyPair.from_seed(b"engine")
        self.user_root = b"user-root"

    def test_envelope_roundtrip(self):
        raw = make_raw()
        tx = t_protocol.seal_transaction(self.engine_keys.public, raw, self.user_root)
        assert tx.tx_type == TX_CONFIDENTIAL
        k_tx, recovered = t_protocol.open_transaction(self.engine_keys, tx.payload)
        assert recovered == raw
        assert k_tx == t_protocol.derive_tx_key(self.user_root, raw.tx_hash)

    def test_wrong_private_key_fails(self):
        raw = make_raw()
        tx = t_protocol.seal_transaction(self.engine_keys.public, raw, self.user_root)
        wrong = KeyPair.from_seed(b"not-the-engine")
        with pytest.raises(AuthenticationError):
            t_protocol.open_transaction(wrong, tx.payload)

    def test_one_time_keys_differ_per_tx(self):
        k1 = t_protocol.derive_tx_key(self.user_root, make_raw(1).tx_hash)
        k2 = t_protocol.derive_tx_key(self.user_root, make_raw(2).tx_hash)
        assert k1 != k2

    def test_two_step_open_matches_full(self):
        raw = make_raw()
        tx = t_protocol.seal_transaction(self.engine_keys.public, raw, self.user_root)
        k_tx, body = t_protocol.open_envelope_key(self.engine_keys, tx.payload)
        assert t_protocol.open_body(k_tx, body) == raw
        assert t_protocol.open_body(
            k_tx, t_protocol.envelope_body(tx.payload)
        ) == raw

    def test_receipt_roundtrip(self):
        k_tx = b"k" * 16
        sealed = t_protocol.seal_receipt(k_tx, b"receipt-bytes")
        assert t_protocol.open_receipt(k_tx, sealed) == b"receipt-bytes"

    def test_receipt_sealing_is_deterministic(self):
        k_tx = b"k" * 16
        assert t_protocol.seal_receipt(k_tx, b"r") == t_protocol.seal_receipt(k_tx, b"r")

    def test_receipt_wrong_key(self):
        sealed = t_protocol.seal_receipt(b"k" * 16, b"receipt")
        with pytest.raises(AuthenticationError):
            t_protocol.open_receipt(b"j" * 16, sealed)

    def test_malformed_envelope(self):
        with pytest.raises(ReproError):
            t_protocol.open_transaction(self.engine_keys, b"garbage")

    def test_tampered_body_detected(self):
        raw = make_raw()
        tx = t_protocol.seal_transaction(self.engine_keys.public, raw, self.user_root)
        tampered = bytearray(tx.payload)
        tampered[-1] ^= 1
        with pytest.raises((AuthenticationError, ReproError)):
            t_protocol.open_transaction(self.engine_keys, bytes(tampered))


class TestDProtocol:
    def setup_method(self):
        self.cipher = StateCipher(b"s" * 16)
        self.aad = StateAad(b"\x01" * 20, b"\x02" * 20, 1)

    def test_roundtrip(self):
        sealed = self.cipher.seal(b"state-value", self.aad)
        assert self.cipher.open(sealed, self.aad) == b"state-value"

    def test_deterministic_across_replicas(self):
        other = StateCipher(b"s" * 16)
        assert self.cipher.seal(b"v", self.aad) == other.seal(b"v", self.aad)

    def test_aad_binds_contract_identity(self):
        sealed = self.cipher.seal(b"v", self.aad)
        other_contract = StateAad(b"\x09" * 20, b"\x02" * 20, 1)
        with pytest.raises(AuthenticationError):
            self.cipher.open(sealed, other_contract)

    def test_aad_binds_owner(self):
        sealed = self.cipher.seal(b"v", self.aad)
        other_owner = StateAad(b"\x01" * 20, b"\x09" * 20, 1)
        with pytest.raises(AuthenticationError):
            self.cipher.open(sealed, other_owner)

    def test_aad_binds_security_version(self):
        sealed = self.cipher.seal(b"v", self.aad)
        upgraded = StateAad(b"\x01" * 20, b"\x02" * 20, 2)
        with pytest.raises(AuthenticationError):
            self.cipher.open(sealed, upgraded)

    def test_wrong_key(self):
        sealed = self.cipher.seal(b"v", self.aad)
        with pytest.raises(AuthenticationError):
            StateCipher(b"t" * 16).open(sealed, self.aad)

    def test_bad_key_size(self):
        with pytest.raises(ProtocolError):
            StateCipher(b"short")

    def test_short_blob(self):
        with pytest.raises(ProtocolError):
            self.cipher.open(b"xx", self.aad)


class TestKProtocol:
    def setup_method(self):
        self.service = AttestationService()

    def _node(self, name):
        platform = Platform(name)
        self.service.register_platform(platform)
        return KMEnclave(platform)

    def test_founder_generates_keys(self):
        km = self._node("founder")
        pk = bootstrap_founder(km)
        assert km.ecall("public_key") == pk
        assert km.has_keys

    def test_double_generation_rejected(self):
        km = self._node("founder")
        bootstrap_founder(km)
        with pytest.raises(ProtocolError):
            km.ecall("generate_keys")

    def test_decentralized_map_spreads_keys(self):
        founder = self._node("n0")
        bootstrap_founder(founder)
        joiners = [self._node(f"n{i}") for i in range(1, 4)]
        for joiner in joiners:
            pk = mutual_attested_provision(founder, joiner, self.service)
            assert pk == founder.ecall("public_key")
            assert joiner.ecall("public_key") == pk

    def test_map_requires_member_keys(self):
        a, b = self._node("a"), self._node("b")
        with pytest.raises(ProtocolError):
            mutual_attested_provision(a, b, self.service)

    def test_map_rejects_unregistered_platform(self):
        founder = self._node("good")
        bootstrap_founder(founder)
        rogue_platform = Platform("rogue")  # never registered
        rogue = KMEnclave(rogue_platform)
        with pytest.raises(AttestationError):
            mutual_attested_provision(founder, rogue, self.service)

    def test_centralized_kms(self):
        kms = CentralizedKMS(self.service)
        nodes = [self._node(f"n{i}") for i in range(3)]
        for node in nodes:
            assert kms.provision(node) == kms.pk_tx
        pks = {node.ecall("public_key") for node in nodes}
        assert pks == {kms.pk_tx}

    def test_kms_measurement_pinning(self):
        kms = CentralizedKMS(self.service)
        good = self._node("good")
        kms.pin_measurement(good.measurement)
        kms.provision(good)

        class EvilKM(KMEnclave):
            def ecall_extra(self):
                return None

        evil_platform = Platform("evil-platform")
        self.service.register_platform(evil_platform)
        evil = EvilKM(evil_platform)
        with pytest.raises(AttestationError):
            kms.provision(evil)

    def test_exchange_requires_begin(self):
        km = self._node("n")
        bootstrap_founder(km)
        with pytest.raises(ProtocolError):
            km.ecall("finish_exchange", b"blob")

    def test_seal_unseal_keys(self):
        km = self._node("n")
        pk = bootstrap_founder(km)
        sealed = km.ecall("seal_keys")
        km2 = KMEnclave(km.platform, "km-restarted")
        assert km2.ecall("unseal_keys", sealed) == pk


GRANT_ALL_ACL = """
fn noop() { }
fn acl_check() {
    let out = alloc(1);
    store8(out, 1);
    output(out, 1);
}
"""


class TestCacheBound:
    def test_metadata_cache_evicts_oldest(self, confidential_engine, client,
                                          monkeypatch):
        """The pre-verification cache lives in the CS enclave and keeps
        only the newest entries: a grant for an evicted transaction finds
        no k_tx to wrap, and an evicted transaction still executes."""
        from conftest import deploy_confidential
        from repro.core import engine as engine_module
        from repro.crypto.ecc import decode_point

        monkeypatch.setattr(engine_module, "_TX_META_CAPACITY", 3)
        engine = confidential_engine
        address = deploy_confidential(engine, client, GRANT_ALL_ACL)
        pk = decode_point(engine.pk_tx)
        txs = [client.confidential_call(pk, address, "noop", b"")
               for _ in range(5)]
        assert engine.preverify_batch(txs) == [True] * 5
        requester = KeyPair.from_seed(b"bounded-requester")

        def grant(tx):
            return engine.grant_access(tx.tx_hash, b"\x07" * 20,
                                       requester.public_bytes(), address,
                                       "receipt")

        # Oldest entries evicted; newest kept.
        for tx in txs[:2]:
            with pytest.raises(ProtocolError, match="no longer cached"):
                grant(tx)
        assert all(grant(tx) is not None for tx in txs[2:])
        # Evicted transactions still execute via the full path.
        misses = engine.preprocessor.cache_misses
        assert engine.execute(txs[0]).receipt.success
        assert engine.preprocessor.cache_misses == misses + 1
