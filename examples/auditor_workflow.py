#!/usr/bin/env python3
"""Third-party audit workflows (§3.2.3 authorization + the §4 access-
control extension).

A lender books loans on chain. Three parties want visibility:

1. the **public** sees only the public fields (loan id, principal);
2. an **external auditor** is granted the `auditor` role through the
   contract's own access-control logic and can decrypt exactly the
   debtor names — from any replica's raw database — without holding
   `k_states`;
3. a **delegate** of one transaction's owner is granted that single
   transaction's receipt through the pre-defined authorization chain
   code (`acl_check`).

Run:  python examples/auditor_workflow.py
"""

from repro.ccle import decode as ccle_decode
from repro.ccle import encode as ccle_encode
from repro.ccle import parse_schema
from repro.core import (
    AccessRequest,
    AuthorizationChainCode,
    ConfidentialEngine,
    Receipt,
    bootstrap_founder,
    t_protocol,
)
from repro.core.d_protocol import StateAad
from repro.core.roles import open_role_blob, unwrap_role_key
from repro.crypto.ecc import decode_point
from repro.crypto.keys import KeyPair
from repro.lang import compile_source
from repro.storage import MemoryKV, rlp
from repro.workloads import Client

SCHEMA_SOURCE = """
attribute "map";
attribute "confidential";

table Loan {
  loan_id: string;
  principal: ulong;
  debtor: string(confidential("auditor"));
  credit_score: uint(confidential("risk"));
}
root_type Loan;
"""
SCHEMA = parse_schema(SCHEMA_SOURCE)

CONTRACT = """
fn book() {
    let n = input_size();
    let buf = alloc(n);
    input_read(buf, 0, n);
    // key = "ccle:" + first 12 bytes of the encoded loan id region
    let key = alloc(32);
    memcopy(key, "ccle:", 5);
    let id_off = load32(buf + 2);
    let id_len = load32(buf + id_off);
    memcopy(key + 5, buf + id_off + 4, id_len);
    storage_set(key, 5 + id_len, buf, n);
    output(buf + id_off + 4, id_len);
}
fn acl_role() {
    // Grant only the auditor role (RLP arg: [role, requester]).
    let n = input_size();
    let buf = alloc(n);
    input_read(buf, 0, n);
    let out = alloc(1);
    store8(out, 0);
    if (load8(buf + 1) == 0x87) {
        if (load8(buf + 2) == 'a' && load8(buf + 3) == 'u') {
            store8(out, 1);
        }
    }
    output(out, 1);
}
fn acl_check() {
    // Receipt delegation policy: allow requests of kind "receipt".
    let n = input_size();
    let buf = alloc(n);
    input_read(buf, 0, n);
    let out = alloc(1);
    store8(out, 0);
    if (load8(buf + n - 7) == 'r' && load8(buf + n - 1) == 't') {
        store8(out, 1);
    }
    output(out, 1);
}
"""


def main() -> None:
    engine = ConfidentialEngine(MemoryKV())
    bootstrap_founder(engine.km)
    pk = decode_point(engine.provision_from_km())
    lender = Client.from_seed(b"lender")

    artifact = compile_source(CONTRACT, "wasm")
    tx, address = lender.confidential_deploy(pk, artifact, SCHEMA_SOURCE)
    assert engine.execute(tx).receipt.success

    loans = [
        {"loan_id": f"L-{i}", "principal": 10_000 * (i + 1),
         "debtor": f"debtor-{i}", "credit_score": 650 + i}
        for i in range(3)
    ]
    booked = []
    for loan in loans:
        raw = lender.call_raw(address, "book", ccle_encode(SCHEMA, loan))
        tx = lender.seal(pk, raw)
        engine.preverify(tx)
        outcome = engine.execute(tx)
        assert outcome.receipt.success, outcome.receipt.error
        booked.append((raw, outcome))
    print(f"booked {len(booked)} confidential loans at {address.hex()[:12]}…")

    # --- 1. the public view ------------------------------------------------
    # The AAD's owner and version travel in plaintext ahead of the sealed
    # code record, so anyone holding the database can rebuild it.
    owner, version, _sealed_code = rlp.decode(engine.kv.get(b"c:" + address))
    aad = StateAad(address, owner, rlp.decode_int(version))
    pub_blobs = {k: v for k, v in engine.kv.items() if k.endswith(b"#pub")}
    print("\npublic view (raw database, no keys):")
    for blob in pub_blobs.values():
        loan = ccle_decode(SCHEMA, blob)
        print(f"  {loan['loan_id']}: principal={loan['principal']}, "
              f"debtor={loan['debtor']!r}, score={loan['credit_score']}")

    # --- 2. the auditor role -----------------------------------------------
    auditor = KeyPair.from_seed(b"external-auditor")
    wrapped = engine.export_role_key(
        address, "auditor", b"\x0a" * 20, auditor.public_bytes()
    )
    role_key = unwrap_role_key(auditor, wrapped)
    print("\nauditor granted the 'auditor' role key; reads debtor names:")
    for key, value in engine.kv.items():
        if key.endswith(b"#sec@auditor"):
            tree = open_role_blob(role_key, value, aad)
            print(f"  {tree}")
    denied = engine.export_role_key(
        address, "risk", b"\x0a" * 20, auditor.public_bytes()
    )
    print(f"auditor asking for the 'risk' role: "
          f"{'granted' if denied else 'DENIED by contract policy'}")

    # --- 3. receipt delegation through the chain code -----------------------
    delegate = KeyPair.from_seed(b"delegate")
    chaincode = AuthorizationChainCode(engine.grant_access)
    target_raw, target_outcome = booked[0]
    chaincode.submit(AccessRequest(
        tx_hash=target_outcome.receipt.tx_hash,  # the wire tx hash
        requester=b"\x0b" * 20,
        requester_pub=delegate.public_bytes(),
        target_contract=address,
        kind="receipt",
    ))
    [(request, wrapped_key)] = chaincode.process()
    k_tx = AuthorizationChainCode.unwrap(delegate, wrapped_key)
    receipt = Receipt.decode(
        t_protocol.open_receipt(k_tx, target_outcome.sealed_receipt)
    )
    print(f"\ndelegate opened the delegated receipt: loan "
          f"{receipt.output.decode()} booked successfully")


if __name__ == "__main__":
    main()
