"""End-to-end tests for Pass 3, the bytecode confidentiality flow analyzer.

Covers the adversarial corpus (five leaky classes, each pinned to one
finding kind), sourceless deploy admission on both engines, the
public-outputs sink model, zero false positives on every shipped
example on both VMs, path-constraint recovery, resource bounds,
disassembly context, the declassify escape hatch, the CLI mode, and
the per-mode rejection split in the block executor and metrics.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from bytecode_corpus import (
    CORPUS,
    FIXTURE_DIR,
    SCHEMA_SOURCE,
    SECRET_KEY,
    _BUF_CAP,
    _BUF_PTR,
    _get_secret,
    _wasm_artifact,
)
from conftest import COUNTER_SOURCE, MockHost
from repro.analysis import analyze_artifact, check_artifact, flow_verify_artifact
from repro.ccle import parse_schema
from repro.cli import main as cli_main
from repro.core import (
    ConfidentialEngine,
    PublicEngine,
    bootstrap_founder,
)
from repro.core.receipts import ANALYSIS_BYTECODE_ONLY, ANALYSIS_SOURCE_BYTECODE, KIND_ANALYSIS
from repro.core.stats import DEPLOY_REJECT, DEPLOY_REJECT_BYTECODE, DEPLOY_REJECT_SOURCE
from repro.crypto.ecc import decode_point
from repro.errors import AnalysisError
from repro.lang import compile_source
from repro.storage import MemoryKV
from repro.vm.host import HOST_INDEX
from repro.vm.wasm import opcodes as op
from repro.vm.wasm.module import decode_module
from repro.vm.wasm.optimizer import fuse_module
from repro.workloads.clients import Client

EXAMPLES = pathlib.Path(__file__).parents[1] / "examples" / "contracts"

SCHEMA = parse_schema(SCHEMA_SOURCE)


@pytest.fixture
def corpus_client():
    return Client.from_seed(b"bytecode-corpus")


def _public_engine():
    return PublicEngine(MemoryKV())


def _confidential_engine():
    engine = ConfidentialEngine(MemoryKV())
    bootstrap_founder(engine.km)
    engine.provision_from_km()
    return engine


# ---------------------------------------------------------------------------
# corpus fixtures on disk
# ---------------------------------------------------------------------------


class TestCorpusFixtures:
    @pytest.mark.parametrize("stem", sorted(CORPUS))
    def test_fixture_bytes_match_builder(self, stem):
        """The checked-in .bin corpus (used directly by CI) must stay in
        lockstep with the builders; regenerate with
        ``PYTHONPATH=src python tests/bytecode_corpus.py``."""
        builder, _kind = CORPUS[stem]
        disk = (FIXTURE_DIR / f"{stem}.bin").read_bytes()
        assert disk == builder().encode()

    def test_schema_fixture_matches(self):
        assert (FIXTURE_DIR / "vault.ccle").read_text() == SCHEMA_SOURCE


# ---------------------------------------------------------------------------
# detection: each leaky class pins one finding kind
# ---------------------------------------------------------------------------


class TestCorpusDetection:
    @pytest.mark.parametrize("stem", sorted(CORPUS))
    def test_pinned_finding_kind(self, stem):
        builder, kind = CORPUS[stem]
        artifact = builder()
        assert not check_artifact(artifact).findings  # structurally clean
        result = analyze_artifact(artifact, schema=SCHEMA)
        kinds = {f.kind for f in result.report.findings}
        assert kind in kinds
        leak = next(f for f in result.report.findings if f.kind == kind)
        assert SECRET_KEY.decode() in leak.detail
        assert leak.function
        assert leak.pc >= 0

    @pytest.mark.parametrize("stem", sorted(CORPUS))
    def test_findings_carry_disassembly_context(self, stem):
        builder, kind = CORPUS[stem]
        result = analyze_artifact(builder(), schema=SCHEMA)
        leak = next(f for f in result.report.findings if f.kind == kind)
        # the window is real disassembly around the sink call
        assert "CALL_HOST" in leak.window or "HOSTCALL" in leak.window
        assert leak.location().endswith(f"(pc {leak.pc})")

    @pytest.mark.parametrize("stem", sorted(CORPUS))
    def test_policy_unarmed_without_schema(self, stem):
        """Without a CCLe schema (and no explicit prefixes) there is no
        key classification, so nothing can be called confidential."""
        builder, _kind = CORPUS[stem]
        assert analyze_artifact(builder()).report.clean

    @pytest.mark.parametrize("stem", sorted(CORPUS))
    def test_explicit_prefix_arms_policy(self, stem):
        builder, kind = CORPUS[stem]
        result = analyze_artifact(builder(), extra_confidential=("ccle:",))
        assert kind in {f.kind for f in result.report.findings}

    def test_flow_verify_raises_deploy_blocking_error(self):
        builder, _ = CORPUS["wasm_secret_to_event"]
        with pytest.raises(AnalysisError, match="bytecode confidentiality leak"):
            flow_verify_artifact(builder(), schema=SCHEMA)

    def test_superinstruction_leak_path_is_fused(self):
        """The fixture really exercises superinstruction transfer
        functions: after OPT4 fusion the argument set-up for both the
        secret read and the log sink is GETGET/GETCONST."""
        builder, _ = CORPUS["wasm_leak_via_superinstruction"]
        fused = fuse_module(decode_module(builder().code))
        ops = {opcode for (opcode, _a, _b) in fused.functions[0].code}
        assert op.GETGET in ops
        assert op.GETCONST in ops
        assert op.LOCAL_GET not in ops  # everything got fused

    def test_declassify_host_call_is_the_escape_hatch(self):
        code = [
            *_get_secret(),
            (op.CONST, _BUF_PTR, 0),
            (op.CONST, _BUF_CAP, 0),
            (op.CALL_HOST, HOST_INDEX["declassify"], 0),
            (op.CONST, _BUF_PTR, 0),
            (op.CONST, _BUF_CAP, 0),
            (op.CALL_HOST, HOST_INDEX["log"], 0),
            (op.RETURN, 0, 0),
        ]
        result = analyze_artifact(_wasm_artifact(code), schema=SCHEMA)
        assert result.report.clean
        assert [d.function for d in result.report.declassifications] == ["leak"]


# ---------------------------------------------------------------------------
# deploy admission with source absent
# ---------------------------------------------------------------------------


class TestDeployAdmission:
    @pytest.mark.parametrize("stem", sorted(CORPUS))
    def test_sourceless_deploy_is_rejected(self, stem, corpus_client):
        builder, _kind = CORPUS[stem]
        engine = _public_engine()
        raw, _ = corpus_client.deploy_raw(builder(), SCHEMA_SOURCE)
        outcome = engine.execute(Client.public(raw))
        receipt = outcome.receipt
        assert not receipt.success
        assert receipt.kind == KIND_ANALYSIS
        assert receipt.analysis_mode == ANALYSIS_BYTECODE_ONLY
        assert "bytecode confidentiality leak" in receipt.error
        assert engine.stats.count(DEPLOY_REJECT) == 1
        assert engine.stats.count(DEPLOY_REJECT_BYTECODE) == 1
        assert engine.stats.count(DEPLOY_REJECT_SOURCE) == 0

    def test_clean_sourceless_deploy_is_bytecode_only(self, corpus_client):
        engine = _public_engine()
        raw, _ = corpus_client.deploy_raw(compile_source(COUNTER_SOURCE, "wasm"))
        receipt = engine.execute(Client.public(raw)).receipt
        assert receipt.success
        assert receipt.analysis_mode == ANALYSIS_BYTECODE_ONLY

    def test_deploy_with_source_is_source_plus_bytecode(self, corpus_client):
        engine = _public_engine()
        raw, _ = corpus_client.deploy_raw(
            compile_source(COUNTER_SOURCE, "wasm"), source=COUNTER_SOURCE
        )
        receipt = engine.execute(Client.public(raw)).receipt
        assert receipt.success
        assert receipt.analysis_mode == ANALYSIS_SOURCE_BYTECODE


class TestConfidentialSinkModel:
    """Receipts on the Confidential-Engine are sealed under k_tx, so
    output/revert payloads are not public sinks there; storage and event
    sinks still are."""

    def test_revert_payload_class_admitted_when_receipts_sealed(self, corpus_client):
        engine = _confidential_engine()
        pk = decode_point(engine.pk_tx)
        builder, _ = CORPUS["wasm_secret_to_revert_payload"]
        tx, _ = corpus_client.confidential_deploy(pk, builder(), SCHEMA_SOURCE)
        assert engine.execute(tx).receipt.success

    def test_event_leak_still_rejected_when_receipts_sealed(self, corpus_client):
        engine = _confidential_engine()
        pk = decode_point(engine.pk_tx)
        builder, _ = CORPUS["wasm_secret_to_event"]
        tx, _ = corpus_client.confidential_deploy(pk, builder(), SCHEMA_SOURCE)
        receipt = engine.execute(tx).receipt
        assert not receipt.success
        assert receipt.kind == KIND_ANALYSIS


# ---------------------------------------------------------------------------
# zero false positives on every shipped example, both VMs
# ---------------------------------------------------------------------------


def _example_cases():
    for path in sorted(EXAMPLES.glob("*.cws")):
        schema_path = path.with_suffix(".ccle")
        schema_source = schema_path.read_text() if schema_path.exists() else ""
        for target in ("wasm", "evm"):
            yield pytest.param(path, schema_source, target,
                               id=f"{path.stem}-{target}")


class TestZeroFalsePositives:
    @pytest.mark.parametrize("path,schema_source,target", _example_cases())
    def test_examples_are_clean(self, path, schema_source, target):
        artifact = compile_source(path.read_text(), target)
        schema = parse_schema(schema_source) if schema_source else None
        result = analyze_artifact(artifact, schema=schema,
                                  contract_name=path.stem)
        assert result.report.clean, [
            (f.kind, f.message) for f in result.report.findings
        ]
        # and the deploy-admission front door agrees on both engines
        flow_verify_artifact(artifact, schema=schema, public_outputs=True)
        flow_verify_artifact(artifact, schema=schema, public_outputs=False)


# ---------------------------------------------------------------------------
# path constraints and resource bounds
# ---------------------------------------------------------------------------

TWO_BRANCH_SOURCE = """
fn gate() {
    let buf = alloc(8);
    input_read(buf, 0, 8);
    let v = load64(buf);
    if (v < 10) {
        log(buf, 8);
    } else {
        output(buf, 8);
    }
}
"""


class TestPathConstraints:
    def test_wasm_branch_operands_traced_to_inputs(self):
        artifact = compile_source(TWO_BRANCH_SOURCE, "wasm")
        result = analyze_artifact(artifact)
        assert result.report.clean
        gate = result.constraints.for_function("gate")
        traced = [c for c in gate if c.lhs == "input[0:8]" and c.rhs == "10"]
        assert traced, [dataclasses.asdict(c) for c in gate]
        constraint = traced[0]
        # `v < 10` lowers to a signed comparison (possibly inverted by
        # the branch direction the codegen picked)
        assert constraint.kind in ("lt_s", "ge_s")
        assert constraint.taken != constraint.fallthrough

    def test_evm_branch_site_is_discovered(self):
        """The EVM codegen funnels values through masking chains the
        symbolic tracer does not model, so operands degrade to '?' —
        but the branch itself (the fuzzer hook) is still recovered."""
        artifact = compile_source(TWO_BRANCH_SOURCE, "evm")
        result = analyze_artifact(artifact)
        gate = result.constraints.for_function("gate")
        assert gate
        assert all(c.taken != c.fallthrough for c in gate)

    def test_constraint_list_ordering_is_stable(self):
        artifact = compile_source(TWO_BRANCH_SOURCE, "wasm")
        first = analyze_artifact(artifact).constraints.to_list()
        second = analyze_artifact(artifact).constraints.to_list()
        assert first == second
        keys = [(c["function"], c["pc"]) for c in first]
        assert keys == sorted(keys)


MULTI_FUNCTION_SOURCE = """
fn _clamp(v) -> i64 {
    if (v > 100) { return 100; }
    return v;
}

fn first() {
    let buf = alloc(8);
    input_read(buf, 0, 8);
    let v = _clamp(load64(buf));
    if (v == 7) { log("seven", 5); }
    output(buf, 8);
}

fn second() {
    let buf = alloc(8);
    input_read(buf, 0, 8);
    if (_clamp(load64(buf)) < 5) { log("small", 5); }
    output(buf, 8);
}
"""

LOOP_CARRIED_SOURCE = """
fn walk() {
    let buf = alloc(8);
    input_read(buf, 0, 8);
    let count = load64(buf);
    let acc = 0;
    let i = 0;
    while (i < count) { acc = acc + i; i = i + 1; }
    let out = alloc(8);
    store64(out, acc);
    output(out, 8);
}
"""

MEMORY_OPERAND_SOURCE = """
fn pick() {
    let buf = alloc(16);
    input_read(buf, 0, 16);
    if (load64(buf + 8) == 42) { log("tail", 4); }
    output(buf, 8);
}
"""

STORAGE_OPERAND_SOURCE = """
fn check() {
    let buf = alloc(8);
    let n = storage_get("cfg.x", 5, buf, 8);
    let v = load64(buf);
    if (v > 50) { log("hot", 3); }
    let out = alloc(8);
    store64(out, 0);
    output(out, 8);
}
"""


class TestPathConstraintProvenance:
    """Constraint recovery beyond the two-branch smoke: call graphs,
    loops, jump tables, and operands routed through memory."""

    def test_helper_functions_get_their_own_constraints(self):
        artifact = compile_source(MULTI_FUNCTION_SOURCE, "wasm")
        constraints = analyze_artifact(artifact).constraints
        # Both exported entry points branch on the helper's return
        # value; the comparison value crossed a call boundary, so its
        # provenance is opaque but the site (the fuzzer hook) remains.
        for export in ("first", "second"):
            sites = constraints.for_function(export)
            assert sites, export
            assert all(c.taken != c.fallthrough for c in sites)
        # The helper itself is analyzed under its function-index label,
        # and *its* branch traces straight back to the caller's input.
        helpers = [c for c in constraints.constraints
                   if c.function.startswith("func_")]
        assert any(c.lhs_sym == ("input", 0, 8) and c.rhs == "100"
                   for c in helpers), [dataclasses.asdict(c)
                                       for c in helpers]

    def test_multi_function_evm_entries_all_covered(self):
        artifact = compile_source(MULTI_FUNCTION_SOURCE, "evm")
        constraints = analyze_artifact(artifact).constraints
        assert {c.function for c in constraints.constraints} >= \
            {"first", "second"}

    def test_loop_carried_comparison_keeps_input_provenance(self):
        artifact = compile_source(LOOP_CARRIED_SOURCE, "wasm")
        walk = analyze_artifact(artifact).constraints.for_function("walk")
        # The `i < count` guard is visited twice: on entry (i is the
        # constant 0) and around the back-edge (i is loop-carried and
        # opaque).  Both visits must keep the input-derived bound, so a
        # fuzzer solving for loop trip counts knows which bytes to aim
        # at.
        guards = [c for c in walk if c.rhs == "input[0:8]"]
        assert len(guards) >= 2, [dataclasses.asdict(c) for c in walk]
        assert {c.pc for c in guards} == {guards[0].pc}
        assert all(c.input_bytes() == [(0, 8)] for c in guards)
        assert any(c.lhs_sym == ("const", 0) for c in guards)

    def test_evm_jump_table_targets_become_distinct_edges(self):
        # Dispatch through pushed return labels: both entries funnel
        # into one shared subroutine which returns via a computed JUMP.
        # The coverage hook records computed JUMPs with their concrete
        # destination, so each jump-table target is its own edge — the
        # fuzzer can tell "reached via get" from "reached via probe".
        from repro.obs.trace import CoverageMap, get_tracer
        from repro.vm.evm.interpreter import EvmInstance

        builder, _ = CORPUS["evm_leak_via_jump_table"]
        artifact = builder()
        tracer = get_tracer()
        saved = tracer.coverage
        tracer.coverage = cov = CoverageMap()
        try:
            for method in ("get", "probe"):
                cov.context = method
                host = MockHost()
                host.store[b"ccle:vault:secret"] = b"\x05" * 8
                EvmInstance(artifact.code, host).run(
                    artifact.entry_for(method))
        finally:
            tracer.coverage = saved
        dests_by_site: dict[int, set] = {}
        for _context, site, outcome in cov.edges:
            if isinstance(outcome, int) and not isinstance(outcome, bool):
                dests_by_site.setdefault(site, set()).add(outcome)
        assert dests_by_site, "computed JUMPs must be recorded"
        # The shared subroutine's return JUMP resolves to a different
        # label per entry point: one site, two target edges.
        assert any(len(dests) >= 2 for dests in dests_by_site.values()), \
            dests_by_site

    def test_memory_routed_input_operand_keeps_offset(self):
        artifact = compile_source(MEMORY_OPERAND_SOURCE, "wasm")
        pick = analyze_artifact(artifact).constraints.for_function("pick")
        # input_read fills 16 bytes; the branch loads the *second* word
        # through memory, and the recovered operand must carry the 8..16
        # byte window (this is what the fuzzer patches).
        traced = [c for c in pick if c.lhs_sym == ("input", 8, 8)]
        assert traced, [dataclasses.asdict(c) for c in pick]
        assert traced[0].rhs == "42"
        assert traced[0].input_bytes() == [(8, 8)]

    def test_storage_routed_operand_marked_unsolvable(self):
        artifact = compile_source(STORAGE_OPERAND_SOURCE, "wasm")
        result = analyze_artifact(artifact, extra_confidential=("cfg.",))
        check = result.constraints.for_function("check")
        traced = [c for c in check
                  if c.lhs_sym == ("storage", "cfg.x", 0, 8)]
        assert traced, [dataclasses.asdict(c) for c in check]
        # Storage-sourced operands carry no input bytes: the fuzzer's
        # solver must refuse them rather than patch garbage.
        assert traced[0].input_bytes() == []

    def test_to_list_emits_structured_provenance(self):
        artifact = compile_source(TWO_BRANCH_SOURCE, "wasm")
        records = analyze_artifact(artifact).constraints.to_list()
        gate = [r for r in records if r["function"] == "gate"
                and r["lhs"] == "input[0:8]"]
        assert gate
        record = gate[0]
        assert record["lhs_sym"] == {"op": "input", "offset": 0, "len": 8}
        assert record["rhs_sym"] == {"op": "const", "value": 10}
        assert record["input_bytes"] == [[0, 8]]

    def test_cli_json_carries_provenance(self, capsys, tmp_path):
        source_path = tmp_path / "two_branch.cws"
        source_path.write_text(TWO_BRANCH_SOURCE)
        artifact_path = str(tmp_path / "two_branch.bin")
        assert cli_main(["compile", str(source_path),
                         "-o", artifact_path]) == 0
        capsys.readouterr()
        assert cli_main(["analyze", "--bytecode", artifact_path,
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        records = payload["path_constraints"]
        assert records
        assert all({"lhs_sym", "rhs_sym", "input_bytes"} <= set(r)
                   for r in records)
        assert any(r["lhs_sym"] == {"op": "input", "offset": 0, "len": 8}
                   for r in records)


class TestResourceBounds:
    def test_wasm_static_bounds(self):
        builder, _ = CORPUS["wasm_secret_to_event"]
        result = analyze_artifact(builder(), schema=SCHEMA)
        bounds = {r.function: r for r in result.report.resources}
        leak = bounds["leak"]
        assert leak.max_stack >= 4  # storage_get takes four arguments
        assert leak.memory_high_water >= _BUF_PTR + _BUF_CAP
        assert leak.cycle_estimate > 8000  # at least the ECALL entry cost
        assert not leak.has_loops

    def test_evm_bounds_cover_every_entry(self):
        builder, _ = CORPUS["evm_leak_via_jump_table"]
        result = analyze_artifact(builder(), schema=SCHEMA)
        bounds = {r.function: r for r in result.report.resources}
        assert set(bounds) == {"get", "probe"}
        for res in bounds.values():
            assert res.max_stack >= 5
            assert res.cycle_estimate > 0


# ---------------------------------------------------------------------------
# CLI: repro analyze --bytecode
# ---------------------------------------------------------------------------


class TestAnalyzeBytecodeCli:
    def test_leaky_fixture_exits_nonzero(self, capsys):
        rc = cli_main([
            "analyze", "--bytecode",
            str(FIXTURE_DIR / "wasm_secret_to_event.bin"),
            "--schema", str(FIXTURE_DIR / "vault.ccle"),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "flow_log" in out or "event log" in out
        assert "CALL_HOST" in out  # disassembly context printed

    def test_clean_example_exits_zero(self, capsys, tmp_path):
        artifact_path = str(tmp_path / "coldchain.bin")
        assert cli_main([
            "compile", str(EXAMPLES / "coldchain.cws"), "-o", artifact_path,
        ]) == 0
        rc = cli_main([
            "analyze", "--bytecode", artifact_path,
            "--schema", str(EXAMPLES / "coldchain.ccle"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no findings" in out or "clean" in out
        assert "branch constraint" in out

    def test_confidential_prefix_flag(self, capsys):
        rc = cli_main([
            "analyze", "--bytecode",
            str(FIXTURE_DIR / "evm_leak_via_jump_table.bin"),
            "--confidential-prefix", "ccle:",
        ])
        assert rc == 1
        assert "confidential" in capsys.readouterr().out

    def test_json_output_is_stable_and_ordered(self, capsys):
        argv = [
            "analyze", "--bytecode",
            str(FIXTURE_DIR / "wasm_leak_via_superinstruction.bin"),
            "--schema", str(FIXTURE_DIR / "vault.ccle"),
            "--json",
        ]
        assert cli_main(argv) == 1
        first = capsys.readouterr().out
        assert cli_main(argv) == 1
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["target"] == "wasm"
        assert payload["findings"]
        kinds = [f["kind"] for f in payload["findings"]]
        assert "flow_log" in kinds
        assert "path_constraints" in payload
        assert "resources" in payload


# ---------------------------------------------------------------------------
# executor + metrics: rejection split by admission mode
# ---------------------------------------------------------------------------


class TestRejectionModeSplit:
    def _run_block(self, corpus_client):
        from repro.chain.executor import BlockExecutor

        public = _public_engine()
        confidential = _confidential_engine()
        executor = BlockExecutor(confidential, public)

        leaky, _ = CORPUS["wasm_secret_to_event"]
        raw_bytecode, _ = corpus_client.deploy_raw(leaky(), SCHEMA_SOURCE)
        good = compile_source(COUNTER_SOURCE, "wasm")
        bad = dataclasses.replace(good, code=good.code[:-10])
        raw_source, _ = corpus_client.deploy_raw(bad, source=COUNTER_SOURCE)
        raw_ok, _ = corpus_client.deploy_raw(good)
        report = executor.execute_block([
            Client.public(raw_bytecode),
            Client.public(raw_source),
            Client.public(raw_ok),
        ])
        return public, report

    def test_executor_splits_rejections_by_mode(self, corpus_client):
        public, report = self._run_block(corpus_client)
        assert report.analysis_rejections == 2
        assert report.analysis_rejections_bytecode_only == 1
        assert report.analysis_rejections_source == 1
        assert report.outcomes[2].receipt.success
        assert public.stats.count(DEPLOY_REJECT_BYTECODE) == 1
        assert public.stats.count(DEPLOY_REJECT_SOURCE) == 1

    def test_metrics_expose_rejections_by_mode(self, corpus_client):
        from repro.obs.export import parse_prometheus_text, prometheus_text
        from repro.obs.metrics import engine_samples

        public, _report = self._run_block(corpus_client)
        samples = parse_prometheus_text(
            prometheus_text(engine_samples(public, label="public")))
        family = "confide_analysis_rejections_by_mode_total"
        assert samples[f'{family}{{engine="public",mode="bytecode-only"}}'] == 1
        assert samples[f'{family}{{engine="public",mode="source+bytecode"}}'] == 1
