"""CCLe role-based access control (the §4 "data access control"
extension): role-scoped splitting, per-role sealing, on-chain-gated key
release."""

import pytest

from conftest import deploy_confidential, restart_enclave, run_confidential
from repro.ccle import encode as ccle_encode
from repro.ccle import parse_schema
from repro.ccle.confidential import merge, split, split_by_role
from repro.core.d_protocol import StateAad, StateCipher
from repro.core.roles import open_role_blob, unwrap_role_key
from repro.crypto.keys import KeyPair
from repro.errors import ProtocolError, SchemaError
from repro.storage import rlp
from repro.workloads.clients import Client

ROLE_SCHEMA_SOURCE = """
attribute "map";
attribute "confidential";

table Loan {
  loan_id: string;
  principal: ulong;
  debtor: string(confidential("auditor"));
  credit_score: uint(confidential("risk"));
  internal_memo: string(confidential);
}
root_type Loan;
"""

ROLE_SCHEMA = parse_schema(ROLE_SCHEMA_SOURCE)

LOAN = {
    "loan_id": "L-7",
    "principal": 50_000,
    "debtor": "ACME GmbH",
    "credit_score": 712,
    "internal_memo": "call before rollover",
}

# Contract: stores the loan under a ccle: key and reads it back;
# `acl_role` grants the "auditor" role to anyone and denies everything
# else.
ROLE_CONTRACT = """
fn save() {
    let n = input_size();
    let buf = alloc(n);
    input_read(buf, 0, n);
    storage_set("ccle:loan", 9, buf, n);
}
fn load() {
    let buf = alloc(4096);
    let n = storage_get("ccle:loan", 9, buf, 4096);
    if (n < 0) { abort("missing", 7); }
    output(buf, n);
}
fn acl_role() {
    let n = input_size();
    let buf = alloc(n);
    input_read(buf, 0, n);
    // The RLP argument starts [list-hdr, 0x87, "auditor", ...] for the
    // auditor role (7-byte string); check those bytes.
    let out = alloc(1);
    store8(out, 0);
    if (n > 9) {
        if (load8(buf + 1) == 0x87) {
            let ok = 1;
            if (load8(buf + 2) != 'a') { ok = 0; }
            if (load8(buf + 3) != 'u') { ok = 0; }
            if (load8(buf + 4) != 'd') { ok = 0; }
            store8(out, ok);
        }
    }
    output(out, 1);
}
"""


class TestSchemaRoles:
    def test_roles_collected(self):
        assert ROLE_SCHEMA.roles() == {"auditor", "risk"}

    def test_role_requires_confidential(self):
        with pytest.raises(SchemaError, match="requires"):
            # Build a schema object by hand with a bad field.
            from repro.ccle.schema import Field, FieldType, Schema, Table

            schema = Schema(
                attributes={"confidential"},
                tables={"T": Table("T", [
                    Field("x", FieldType("int"), confidential=False,
                          role="ghost"),
                ])},
                root_type="T",
            )
            schema.validate()

    def test_empty_role_tag_rejected(self):
        with pytest.raises(SchemaError, match="empty"):
            parse_schema("""
            attribute "confidential";
            table T { x: int(confidential("")); }
            root_type T;
            """)

    def test_untagged_role_syntax_still_works(self):
        schema = parse_schema("""
        attribute "confidential";
        table T { x: int(confidential); }
        root_type T;
        """)
        assert schema.roles() == set()


class TestRoleSplit:
    def test_split_by_role_partitions(self):
        public, secrets = split_by_role(ROLE_SCHEMA, LOAN)
        assert public == {"loan_id": "L-7", "principal": 50_000}
        assert secrets["auditor"] == {"debtor": "ACME GmbH"}
        assert secrets["risk"] == {"credit_score": 712}
        assert secrets[""] == {"internal_memo": "call before rollover"}

    def test_merge_recombines_all_roles(self):
        public, secrets = split_by_role(ROLE_SCHEMA, LOAN)
        merged = public
        for tree in secrets.values():
            merged = merge(ROLE_SCHEMA, merged, tree)
        assert merged == LOAN

    def test_partial_merge_reveals_only_one_role(self):
        public, secrets = split_by_role(ROLE_SCHEMA, LOAN)
        auditor_view = merge(ROLE_SCHEMA, public, secrets["auditor"])
        assert auditor_view["debtor"] == "ACME GmbH"
        assert "credit_score" not in auditor_view
        assert "internal_memo" not in auditor_view

    def test_split_by_role_consistent_with_split(self):
        public_a, all_secret = split(ROLE_SCHEMA, LOAN)
        public_b, secrets = split_by_role(ROLE_SCHEMA, LOAN)
        assert public_a == public_b
        combined = {}
        for tree in secrets.values():
            combined.update(tree)
        assert combined == all_secret


class TestRoleKeys:
    def test_role_keys_differ(self):
        cipher = StateCipher(b"k" * 16)
        assert cipher.role_key("auditor") != cipher.role_key("risk")
        assert cipher.role_key("") == b"k" * 16

    def test_role_cipher_isolation(self):
        cipher = StateCipher(b"k" * 16)
        aad = StateAad(b"\x01" * 20, b"\x02" * 20, 1)
        sealed = cipher.role_cipher("auditor").seal(b"data", aad)
        with pytest.raises(Exception):
            cipher.role_cipher("risk").open(sealed, aad)


def _state_aad(engine, address):
    """The D-Protocol AAD as anyone holding the database rebuilds it: the
    owner and version travel in plaintext ahead of the sealed code."""
    owner, version, _sealed = rlp.decode(engine.kv.get(b"c:" + address))
    return StateAad(address, owner, rlp.decode_int(version))


class TestEndToEnd:
    @pytest.fixture
    def deployed(self, confidential_engine, client):
        address = deploy_confidential(
            confidential_engine, client, ROLE_CONTRACT,
            schema=ROLE_SCHEMA_SOURCE,
        )
        blob = ccle_encode(ROLE_SCHEMA, LOAN)
        outcome = run_confidential(
            confidential_engine, client, address, "save", blob
        )
        assert outcome.receipt.success, outcome.receipt.error
        return confidential_engine, client, address

    def test_roles_stored_under_separate_keys(self, deployed):
        engine, client, address = deployed
        suffixes = {
            key.split(b"#")[-1]
            for key, _ in engine.kv.items() if b"#" in key
        }
        assert suffixes == {b"pub", b"sec", b"sec@auditor", b"sec@risk"}

    def test_contract_sees_merged_value(self, deployed):
        from repro.ccle import decode as ccle_decode

        engine, client, address = deployed
        # A fresh enclave has nothing cached: the read merges the
        # plaintext public part with every decrypted role subtree.
        engine = restart_enclave(engine)
        blob = engine.call_readonly(address, "load", b"")
        assert ccle_decode(ROLE_SCHEMA, blob) == LOAN

    def test_auditor_key_release_and_read(self, deployed):
        engine, client, address = deployed
        auditor = KeyPair.from_seed(b"auditor-keys")
        wrapped = engine.export_role_key(
            address, "auditor", b"\x07" * 20, auditor.public_bytes()
        )
        assert wrapped is not None
        role_key = unwrap_role_key(auditor, wrapped)
        # The auditor reads the replica's database directly.
        full_key = b"s:" + address + b"/" + b"ccle:loan"
        sealed = engine.kv.get(full_key + b"#sec@auditor")
        aad = _state_aad(engine, address)
        tree = open_role_blob(role_key, sealed, aad)
        assert tree == {"debtor": "ACME GmbH"}

    def test_repeated_release_builds_no_table(self, deployed, comb_builds):
        # The enclave's wrap to a requester takes the GLV path, however
        # often the same requester asks.
        engine, client, address = deployed
        auditor = KeyPair.from_seed(b"auditor-keys")
        built = len(comb_builds)
        keys = {
            unwrap_role_key(auditor, engine.export_role_key(
                address, "auditor", b"\x07" * 20, auditor.public_bytes()
            ))
            for _ in range(3)
        }
        assert len(keys) == 1
        assert len(comb_builds) == built

    def test_risk_role_denied_by_contract(self, deployed):
        engine, client, address = deployed
        requester = KeyPair.from_seed(b"nosy")
        wrapped = engine.export_role_key(
            address, "risk", b"\x07" * 20, requester.public_bytes()
        )
        assert wrapped is None

    def test_unknown_role_rejected(self, deployed):
        engine, client, address = deployed
        requester = KeyPair.from_seed(b"x")
        with pytest.raises(ProtocolError, match="no CCLe role"):
            engine.export_role_key(
                address, "janitor", b"\x07" * 20, requester.public_bytes()
            )

    def test_auditor_key_cannot_open_risk_blob(self, deployed):
        engine, client, address = deployed
        auditor = KeyPair.from_seed(b"auditor-keys")
        wrapped = engine.export_role_key(
            address, "auditor", b"\x07" * 20, auditor.public_bytes()
        )
        role_key = unwrap_role_key(auditor, wrapped)
        full_key = b"s:" + address + b"/" + b"ccle:loan"
        sealed = engine.kv.get(full_key + b"#sec@risk")
        aad = _state_aad(engine, address)
        with pytest.raises(Exception):
            open_role_blob(role_key, sealed, aad)
