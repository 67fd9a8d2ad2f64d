"""Untrusted-bytecode verification (repro.analysis.verifier) and its
deploy-admission wiring.

A byzantine peer can gossip a deploy transaction carrying any blob; the
verifier must re-establish everything a local compile would have
guaranteed, including for the fused (OPT4) instruction forms, and the
engines must refuse admission with a structured ``analysis:`` error.
"""

from __future__ import annotations

import dataclasses

import pytest

from conftest import COUNTER_SOURCE, deploy_public
from repro.analysis import (
    KIND_BYTECODE,
    check_artifact,
    verify_artifact,
    verify_evm,
    verify_module,
)
from repro.core import PublicEngine
from repro.core.stats import ARTIFACT_VERIFY, DEPLOY_REJECT, TAINT_ANALYZE
from repro.errors import AnalysisError
from repro.lang import compile_source
from repro.storage import MemoryKV
from repro.vm.evm import opcodes as evm_op
from repro.vm.host import HostImport
from repro.vm.wasm import opcodes as op
from repro.vm.wasm.module import decode_module, encode_module, instr
from repro.vm.wasm.optimizer import fuse_module
from repro.workloads import COLDCHAIN_CONTRACT, COLDCHAIN_SCHEMA_SOURCE
from repro.workloads.clients import Client


@pytest.fixture
def wasm_artifact():
    return compile_source(COUNTER_SOURCE, "wasm")


@pytest.fixture
def evm_artifact():
    return compile_source(COUNTER_SOURCE, "evm")


# ---------------------------------------------------------------------------
# clean paths
# ---------------------------------------------------------------------------

def test_compiled_artifacts_verify_clean(wasm_artifact, evm_artifact):
    for artifact in (wasm_artifact, evm_artifact):
        report = check_artifact(artifact, contract_name="counter")
        assert report.clean, [f.message for f in report.findings]
        assert report.verifier_checks > 0


def test_coldchain_verifies_clean_on_both_targets():
    for target in ("wasm", "evm"):
        artifact = compile_source(COLDCHAIN_CONTRACT, target)
        assert check_artifact(artifact).clean


def test_fused_module_verifies_clean(wasm_artifact):
    # OPT4 superinstructions only exist in decoded in-memory code; the
    # verifier's stack-effect table must cover them
    module = fuse_module(decode_module(wasm_artifact.code))
    fused_ops = {i[0] for f in module.functions for i in f.code}
    assert fused_ops & {op.GETGET, op.GETCONST, op.ADDI, op.GETADD,
                        op.MOVL, op.CMP_BR, op.LOAD8_LOCAL, op.INCL}, (
        "fusion produced no superinstructions; test is vacuous"
    )
    assert verify_module(module) == []


def test_verify_artifact_returns_report_when_clean(wasm_artifact):
    report = verify_artifact(wasm_artifact, contract_name="counter")
    assert report.clean


# ---------------------------------------------------------------------------
# wasm corruptions
# ---------------------------------------------------------------------------

def test_bad_jump_target_rejected(wasm_artifact):
    module = decode_module(wasm_artifact.code)
    func = module.functions[-1]
    func.code[0] = instr(op.JMP, len(func.code) + 17)
    findings = verify_module(module)
    assert findings and findings[0].kind == KIND_BYTECODE


def test_unlisted_host_import_rejected(wasm_artifact):
    module = decode_module(wasm_artifact.code)
    module.hosts.append(HostImport("exfiltrate", 2, 0))
    findings = verify_module(module)
    assert any("'exfiltrate'" in f.message and "not in the canonical"
               in f.message for f in findings)


def test_host_signature_mismatch_rejected(wasm_artifact):
    module = decode_module(wasm_artifact.code)
    victim = module.hosts[0]
    module.hosts[0] = HostImport(victim.name, victim.nparams + 2,
                                 victim.nresults)
    findings = verify_module(module)
    assert any("signature" in f.message for f in findings)


def test_stack_underflow_rejected(wasm_artifact):
    module = decode_module(wasm_artifact.code)
    func = module.functions[-1]
    func.code.insert(0, instr(op.DROP))
    findings = verify_module(module)
    assert any("underflow" in f.message for f in findings)


def test_exported_method_with_params_rejected(wasm_artifact):
    module = decode_module(wasm_artifact.code)
    module.functions[module.exports["increment"]].nparams = 1
    findings = verify_module(module)
    assert any("takes parameters" in f.message for f in findings)


def test_memory_declaration_bounds(wasm_artifact):
    module = decode_module(wasm_artifact.code)
    module.memory_pages = 1 << 20
    findings = verify_module(module)
    assert any("memory declaration" in f.message for f in findings)


def test_truncated_blob_rejected(wasm_artifact):
    bad = dataclasses.replace(wasm_artifact, code=wasm_artifact.code[:-10])
    report = check_artifact(bad)
    assert not report.clean
    assert "does not decode" in report.findings[0].message


def test_corrupted_encoded_module_round_trip(wasm_artifact):
    # tamper with the *encoded* wire form, not the decoded structure
    module = decode_module(wasm_artifact.code)
    func = module.functions[-1]
    func.code[len(func.code) // 2] = instr(op.JMP, 1 << 18)
    bad = dataclasses.replace(wasm_artifact, code=encode_module(module))
    report = check_artifact(bad)
    assert not report.clean


def test_missing_declared_method(wasm_artifact):
    bad = dataclasses.replace(
        wasm_artifact, methods=wasm_artifact.methods + ("phantom",)
    )
    report = check_artifact(bad)
    assert any("'phantom'" in f.message for f in report.findings)


def test_verify_artifact_raises_analysis_error(wasm_artifact):
    bad = dataclasses.replace(wasm_artifact, code=wasm_artifact.code[:-10])
    with pytest.raises(AnalysisError, match="artifact rejected"):
        verify_artifact(bad)


# ---------------------------------------------------------------------------
# evm corruptions
# ---------------------------------------------------------------------------

def test_evm_entry_not_on_instruction_boundary(evm_artifact):
    entries = dict(evm_artifact.entries)
    name = next(iter(entries))
    # +1 would land on the next opcode (JUMPDEST is one byte); +2 lands
    # inside the PUSH4 immediate that follows it
    entries[name] += 2
    findings = verify_evm(evm_artifact.code, entries)
    assert any("not an instruction boundary" in f.message for f in findings)


def test_evm_invalid_opcode():
    findings = verify_evm(bytes([0x0C]), {})  # 0x0c is unassigned
    assert any("invalid EVM opcode" in f.message for f in findings)


def test_evm_truncated_push():
    findings = verify_evm(bytes([evm_op.PUSH1 + 3, 0x01]), {})
    assert any("truncated PUSH" in f.message for f in findings)


def test_evm_static_jump_to_non_jumpdest():
    # PUSH1 0x05; JUMP; offset 5 is a STOP, not a JUMPDEST
    code = bytes([evm_op.PUSH1, 0x05, 0x56, 0x00, 0x00, 0x00])
    findings = verify_evm(code, {})
    assert any("not a JUMPDEST" in f.message for f in findings)


def test_evm_data_after_invalid_guard_is_ignored(evm_artifact):
    # the compiler's memory image after the INVALID guard contains
    # arbitrary bytes; the scanner must not treat them as code
    assert verify_evm(evm_artifact.code + b"\x0c\x0c",
                      evm_artifact.entries) == []


# ---------------------------------------------------------------------------
# deploy admission
# ---------------------------------------------------------------------------

def test_engine_rejects_corrupt_wasm_deploy(wasm_artifact, client):
    engine = PublicEngine(MemoryKV())
    blob = bytearray(wasm_artifact.code)
    blob[len(blob) // 2] ^= 0xFF
    bad = dataclasses.replace(wasm_artifact, code=bytes(blob))
    raw, _ = client.deploy_raw(bad)
    outcome = engine.execute(Client.public(raw))
    assert not outcome.receipt.success
    assert outcome.receipt.error.startswith("analysis:")
    assert engine.stats.count(DEPLOY_REJECT) == 1
    assert engine.stats.count(ARTIFACT_VERIFY) == 1


def test_engine_rejects_corrupt_evm_deploy(evm_artifact, client):
    engine = PublicEngine(MemoryKV())
    entries = dict(evm_artifact.entries)
    entries["increment"] += 2  # inside a PUSH immediate, see above
    bad = dataclasses.replace(evm_artifact, entries=entries)
    raw, _ = client.deploy_raw(bad)
    outcome = engine.execute(Client.public(raw))
    assert not outcome.receipt.success
    assert outcome.receipt.error.startswith("analysis:")


def test_engine_rejects_leaky_source_on_deploy(client):
    engine = PublicEngine(MemoryKV())
    leaky = COLDCHAIN_CONTRACT.replace(
        "declassify(temp < lo || temp > hi)", "temp < lo || temp > hi"
    )
    artifact = compile_source(leaky, "wasm")
    raw, _ = client.deploy_raw(artifact, COLDCHAIN_SCHEMA_SOURCE, leaky)
    outcome = engine.execute(Client.public(raw))
    assert not outcome.receipt.success
    assert "confidentiality leak" in outcome.receipt.error
    assert engine.stats.count(TAINT_ANALYZE) == 1
    assert engine.stats.count(DEPLOY_REJECT) == 1


def test_engine_admits_annotated_coldchain_with_source(client):
    engine = PublicEngine(MemoryKV())
    artifact = compile_source(COLDCHAIN_CONTRACT, "wasm")
    raw, _ = client.deploy_raw(
        artifact, COLDCHAIN_SCHEMA_SOURCE, COLDCHAIN_CONTRACT
    )
    outcome = engine.execute(Client.public(raw))
    assert outcome.receipt.success, outcome.receipt.error
    assert engine.stats.count(ARTIFACT_VERIFY) == 1
    assert engine.stats.count(TAINT_ANALYZE) == 1
    assert engine.stats.count(DEPLOY_REJECT) == 0


def test_upgrade_path_is_also_verified(wasm_artifact, client):
    engine = PublicEngine(MemoryKV())
    address = deploy_public(engine, client, COUNTER_SOURCE)
    bad = dataclasses.replace(wasm_artifact, code=wasm_artifact.code[:-10])
    raw = client.upgrade_raw(address, bad)
    outcome = engine.execute(Client.public(raw))
    assert not outcome.receipt.success
    assert outcome.receipt.error.startswith("analysis:")


def test_executor_counts_analysis_rejections(wasm_artifact, client):
    from repro.chain.executor import BlockExecutor
    from repro.core import ConfidentialEngine, bootstrap_founder

    public = PublicEngine(MemoryKV())
    confidential = ConfidentialEngine(MemoryKV())
    bootstrap_founder(confidential.km)
    confidential.provision_from_km()
    executor = BlockExecutor(confidential, public)

    bad = dataclasses.replace(wasm_artifact, code=wasm_artifact.code[:-10])
    raw_bad, _ = client.deploy_raw(bad)
    raw_ok, _ = client.deploy_raw(wasm_artifact)
    report = executor.execute_block(
        [Client.public(raw_bad), Client.public(raw_ok)]
    )
    assert report.analysis_rejections == 1
    assert report.outcomes[0].receipt.success is False
    assert report.outcomes[1].receipt.success is True
