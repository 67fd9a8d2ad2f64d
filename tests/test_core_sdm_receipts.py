"""SDM (cache, CCLe selective encryption) and receipt-authorization tests."""

import pytest

from conftest import deploy_confidential, restart_enclave, run_confidential
from repro.ccle import decode as ccle_decode
from repro.ccle import parse_schema
from repro.core import AccessRequest, AuthorizationChainCode, Receipt
from repro.core.receipts import ACL_METHOD
from repro.crypto.ecc import decode_point
from repro.crypto.keys import KeyPair
from repro.errors import ChainError, ProtocolError
from repro.storage import rlp
from repro.workloads.clients import Client

CCLE_SCHEMA = """
attribute "map";
attribute "confidential";

table Record {
  title: string;
  amount: ulong;
  secret_note: string(confidential);
}
root_type Record;
"""

# A contract storing one CCLe-modelled value under a "ccle:"-prefixed key.
CCLE_CONTRACT = """
fn save() {
    let n = input_size();
    let buf = alloc(n);
    input_read(buf, 0, n);
    storage_set("ccle:rec", 8, buf, n);
}
fn load() {
    let buf = alloc(4096);
    let n = storage_get("ccle:rec", 8, buf, 4096);
    if (n < 0) { abort("missing", 7); }
    output(buf, n);
}
"""

ACL_CONTRACT = """
fn noop() { }
fn acl_check() {
    // Grant whenever the request blob ends with byte 0x01 (a stand-in
    // for real business policy), deny otherwise.
    let n = input_size();
    let buf = alloc(n);
    input_read(buf, 0, n);
    let out = alloc(1);
    if (load8(buf + n - 1) == 1) { store8(out, 1); } else { store8(out, 0); }
    output(out, 1);
}
"""


class TestSdmCcleSelectiveEncryption:
    def _setup(self, confidential_engine, client):
        from repro.ccle import encode as ccle_encode

        schema = parse_schema(CCLE_SCHEMA)
        address = deploy_confidential(
            confidential_engine, client, CCLE_CONTRACT, schema=CCLE_SCHEMA
        )
        value = {"title": "invoice-42", "amount": 9000,
                 "secret_note": "debtor in arrears"}
        blob = ccle_encode(schema, value)
        outcome = run_confidential(confidential_engine, client, address, "save", blob)
        assert outcome.receipt.success, outcome.receipt.error
        return schema, address, value

    def test_public_part_stored_plaintext(self, confidential_engine, client):
        schema, address, value = self._setup(confidential_engine, client)
        pub_entries = [
            v for k, v in confidential_engine.kv.items() if k.endswith(b"#pub")
        ]
        assert len(pub_entries) == 1
        decoded = ccle_decode(schema, pub_entries[0])
        assert decoded["title"] == "invoice-42"
        assert decoded["amount"] == 9000
        assert decoded["secret_note"] == ""  # stripped

    def test_secret_part_stored_ciphertext(self, confidential_engine, client):
        self._setup(confidential_engine, client)
        sec_entries = [
            v for k, v in confidential_engine.kv.items() if k.endswith(b"#sec")
        ]
        assert len(sec_entries) == 1
        assert b"arrears" not in sec_entries[0]

    def test_contract_reads_merged_value(self, confidential_engine, client):
        schema, address, value = self._setup(confidential_engine, client)
        engine = restart_enclave(confidential_engine)
        blob = engine.call_readonly(address, "load", b"")
        assert ccle_decode(schema, blob) == value

    def test_sdm_cache_hits(self, confidential_engine, client):
        schema, address, _ = self._setup(confidential_engine, client)
        sdm = confidential_engine.sdm_stats  # the host-side counts
        confidential_engine.call_readonly(address, "load", b"")
        hits_before = sdm.hits
        confidential_engine.call_readonly(address, "load", b"")
        assert sdm.hits > hits_before


class TestReceiptEncoding:
    def test_roundtrip(self):
        receipt = Receipt(
            tx_hash=b"\x01" * 32, success=True, output=b"out",
            error="", logs=(b"log1", b"log2"), instructions=123,
            gas_used=456, storage_reads=7, storage_writes=8,
            sender=b"\x02" * 20, contract=b"\x03" * 20,
        )
        assert Receipt.decode(receipt.encode()) == receipt

    def test_failure_roundtrip(self):
        receipt = Receipt(b"\x01" * 32, False, error="kaboom")
        back = Receipt.decode(receipt.encode())
        assert not back.success
        assert back.error == "kaboom"

    @pytest.mark.parametrize("length", [11, 12, 14])
    def test_only_the_encoded_length_decodes(self, length):
        items = rlp.decode(Receipt(b"\x01" * 32, True).encode())
        items = (items + [b""])[:length]
        with pytest.raises(ChainError, match="malformed receipt"):
            Receipt.decode(rlp.encode(items))


class TestAuthorizationChainCode:
    def _make(self, confidential_engine, client):
        address = deploy_confidential(confidential_engine, client, ACL_CONTRACT)
        chaincode = AuthorizationChainCode(confidential_engine.grant_access)
        return address, chaincode

    def _processed_tx(self, confidential_engine, client, address):
        """A pre-verified, executed call and its k_tx (the client's)."""
        pk = decode_point(confidential_engine.pk_tx)
        raw = client.call_raw(address, "noop", b"")
        tx = client.seal(pk, raw)
        confidential_engine.preverify(tx)
        confidential_engine.execute(tx)
        return tx, client.tx_key_for(raw.tx_hash)

    def test_grant_releases_wrapped_key(self, confidential_engine, client):
        address, chaincode = self._make(confidential_engine, client)
        tx, k_tx = self._processed_tx(confidential_engine, client, address)
        requester = KeyPair.from_seed(b"auditor")
        # The ACL contract grants when the request ends with 0x01; the
        # request encoding ends with the kind string — use kind "\x01".
        request = AccessRequest(
            tx_hash=tx.tx_hash,
            requester=b"\x07" * 20,
            requester_pub=requester.public_bytes(),
            target_contract=address,
            kind="\x01",
        )
        chaincode.submit(request)
        [(__, wrapped)] = chaincode.process()
        assert wrapped is not None
        assert AuthorizationChainCode.unwrap(requester, wrapped) == k_tx

    def test_repeated_grants_build_no_table(
        self, confidential_engine, client, comb_builds
    ):
        # The enclave's k_tx wrap takes the GLV path, however often the
        # same requester asks.
        address, chaincode = self._make(confidential_engine, client)
        tx, k_tx = self._processed_tx(confidential_engine, client, address)
        requester = KeyPair.from_seed(b"auditor")
        built = len(comb_builds)
        for _ in range(3):
            chaincode.submit(AccessRequest(
                tx_hash=tx.tx_hash,
                requester=b"\x07" * 20,
                requester_pub=requester.public_bytes(),
                target_contract=address,
                kind="\x01",
            ))
        results = chaincode.process()
        assert len(comb_builds) == built
        assert [
            AuthorizationChainCode.unwrap(requester, wrapped)
            for _, wrapped in results
        ] == [k_tx] * 3

    def test_denied_request(self, confidential_engine, client):
        address, chaincode = self._make(confidential_engine, client)
        tx, _ = self._processed_tx(confidential_engine, client, address)
        requester = KeyPair.from_seed(b"nosy")
        request = AccessRequest(
            tx_hash=tx.tx_hash,
            requester=b"\x07" * 20,
            requester_pub=requester.public_bytes(),
            target_contract=address,
            kind="\x00",
        )
        chaincode.submit(request)
        [(__, wrapped)] = chaincode.process()
        assert wrapped is None

    def test_grant_for_unknown_tx_raises(self, confidential_engine, client):
        address, chaincode = self._make(confidential_engine, client)
        request = AccessRequest(
            tx_hash=b"\xff" * 32,
            requester=b"\x07" * 20,
            requester_pub=KeyPair.from_seed(b"x").public_bytes(),
            target_contract=address,
            kind="\x01",
        )
        chaincode.submit(request)
        with pytest.raises(ProtocolError, match="no longer cached"):
            chaincode.process()

    def test_request_argument_encoding(self, confidential_engine, client):
        # The chain code forwards (tx_hash, requester, kind) RLP-encoded.
        address, _ = self._make(confidential_engine, client)
        argument = rlp.encode([b"\x01" * 32, b"\x02" * 20, b"receipt"])
        verdict = confidential_engine.call_readonly(address, ACL_METHOD, argument)
        assert verdict == b"\x00"  # "receipt" does not end with 0x01
