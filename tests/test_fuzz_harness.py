"""Tests for the hybrid coverage-guided fuzzer (``src/repro/fuzz``).

Covers the acceptance criteria from the fuzzer PR: byte-identical
replay from a fixed seed, constraint-assisted coverage beating pure
random mutation on the example contracts, planted-bug detection by
every oracle, and zero findings on honest targets.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.analysis.bytecode_flow import PathConstraint, analyze_artifact
from repro.cli import main as cli_main
from repro.fuzz import (BUILTIN_TARGETS, CallStep, ContractAbi, Corpus,
                        DifferentialExecutor, FuzzConfig, Mutator,
                        decode_sequence, encode_sequence, infer_abi,
                        load_target, replay, run_fuzz, solve_constraint,
                        target_names)
from repro.fuzz.corpus import entry_name, parse_finding_file
from repro.obs.export import prometheus_text
from repro.obs.metrics import fuzz_samples


def small_config(**overrides) -> FuzzConfig:
    defaults = dict(targets=("gates",), seed=7, max_execs=120,
                    minimize_budget=24)
    defaults.update(overrides)
    return FuzzConfig(**defaults)


class TestAbiInference:
    def test_fixed_layout_from_constraints(self):
        target = load_target("div_shift")
        spec = target.abi.spec("mix")
        assert spec is not None
        assert spec.min_size == 16
        assert [f.size for f in spec.fields] == [8, 8]

    def test_methods_cover_artifact_exports(self):
        target = load_target("gates")
        assert set(target.abi.names()) == {"open", "probe"}

    def test_random_args_deterministic(self):
        target = load_target("gates")
        spec = target.abi.spec("open")
        a = spec.random_args(random.Random(3))
        b = spec.random_args(random.Random(3))
        assert a == b
        assert len(a) >= spec.min_size

    def test_secret_ranges_marked(self):
        target = load_target("leaky_log")
        spec = target.abi.spec("put")
        ranges = spec.secret_ranges()
        assert (8, 8) in ranges

    def test_infer_abi_without_constraints(self):
        from repro.lang import compile_source
        artifact = compile_source(BUILTIN_TARGETS["greeter"]().source,
                                  "wasm")
        abi = infer_abi(artifact)
        assert isinstance(abi, ContractAbi)
        assert abi.names()


class TestCorpus:
    def test_sequence_line_roundtrip(self):
        seq = (CallStep("open", bytes(range(24))), CallStep("probe", b""))
        line = encode_sequence(seq)
        assert decode_sequence(line) == seq

    def test_decode_rejects_junk(self):
        with pytest.raises(ValueError):
            decode_sequence("no-colon-here")

    def test_add_dedups(self):
        corpus = Corpus()
        seq = (CallStep("open", b"\x01" * 24),)
        assert corpus.add(seq)
        assert not corpus.add(seq)
        assert len(corpus) == 1

    def test_directory_persistence(self, tmp_path):
        directory = str(tmp_path / "corpus")
        corpus = Corpus(directory)
        seq_a = (CallStep("open", b"\x01" * 24),)
        seq_b = (CallStep("probe", b"\x02" * 8),)
        corpus.add(seq_a)
        corpus.add(seq_b)
        fresh = Corpus(directory)
        assert fresh.load() == 2
        assert set(map(encode_sequence, fresh.entries)) == {
            encode_sequence(seq_a), encode_sequence(seq_b)}

    def test_entry_name_is_stable(self):
        seq = (CallStep("open", b"\x07" * 24),)
        assert entry_name(seq) == entry_name(decode_sequence(
            encode_sequence(seq)))


class TestMutator:
    def test_deterministic_for_fixed_seed(self):
        target = load_target("gates")
        runs = []
        for _ in range(2):
            rng = random.Random(11)
            mutator = Mutator(rng, target.abi)
            corpus = Corpus()
            corpus.add(mutator.fresh_sequence())
            runs.append([encode_sequence(mutator.mutate(
                corpus.choice(rng), corpus)) for _ in range(50)])
        assert runs[0] == runs[1]

    def test_mutants_stay_within_abi(self):
        target = load_target("gates")
        rng = random.Random(5)
        mutator = Mutator(rng, target.abi)
        corpus = Corpus()
        corpus.add(mutator.fresh_sequence())
        names = set(target.abi.names())
        for _ in range(100):
            seq = mutator.mutate(corpus.choice(rng), corpus)
            assert seq, "mutator must never return an empty sequence"
            assert {step.method for step in seq} <= names
            corpus.add(seq)


def input_eq_constraint(offset=0, const=4242):
    return PathConstraint(
        function="f", pc=1, kind="eq", lhs=f"input[{offset}:{offset + 8}]",
        rhs=str(const), taken=10, fallthrough=2,
        lhs_sym=("input", offset, 8), rhs_sym=("const", const))


class TestSolver:
    def test_solves_direct_equality(self):
        c = input_eq_constraint(offset=8, const=0xDEAD)
        got = solve_constraint(c, True, b"\x00" * 16)
        assert got, "solver should produce at least one candidate"
        assert int.from_bytes(got[0][8:16], "big") == 0xDEAD

    def test_inverts_for_fallthrough(self):
        c = input_eq_constraint(const=0)
        got = solve_constraint(c, False, b"\x00" * 8)
        assert got
        assert all(int.from_bytes(g[0:8], "big") != 0 for g in got)

    def test_unwraps_affine_add(self):
        c = PathConstraint(
            function="f", pc=3, kind="eq", lhs="(input[0:8] + 1337)",
            rhs="5000", taken=9, fallthrough=4,
            lhs_sym=("bin", "+", ("input", 0, 8), ("const", 1337)),
            rhs_sym=("const", 5000))
        got = solve_constraint(c, True, b"\x00" * 8)
        assert got
        assert int.from_bytes(got[0][0:8], "big") == 5000 - 1337

    def test_resizes_for_input_size(self):
        c = PathConstraint(
            function="f", pc=5, kind="eq", lhs="input_size", rhs="24",
            taken=9, fallthrough=6,
            lhs_sym=("input_size",), rhs_sym=("const", 24))
        got = solve_constraint(c, True, b"\x00" * 8)
        assert any(len(g) == 24 for g in got)

    def test_gives_up_on_opaque_operands(self):
        c = PathConstraint(
            function="f", pc=7, kind="eq", lhs="storage('cfg.x')[0:8]",
            rhs="50", taken=9, fallthrough=8,
            lhs_sym=("storage", "cfg.x", 0, 8), rhs_sym=("const", 50))
        assert solve_constraint(c, True, b"\x00" * 8) == []

    def test_ordered_relation_targets(self):
        c = PathConstraint(
            function="f", pc=9, kind="lt_s", lhs="input[0:8]", rhs="100",
            taken=20, fallthrough=10,
            lhs_sym=("input", 0, 8), rhs_sym=("const", 100))
        taken = solve_constraint(c, True, b"\xff" * 8)
        assert any(int.from_bytes(g[0:8], "big", signed=True) < 100
                   for g in taken)
        untaken = solve_constraint(c, False, b"\x00" * 8)
        assert any(int.from_bytes(g[0:8], "big", signed=True) >= 100
                   for g in untaken)


class TestDifferentialExecutor:
    def test_honest_sequence_matches_across_vms(self):
        target = load_target("coldchain")
        executor = DifferentialExecutor(target)
        sid = (1).to_bytes(8, "big")
        seq = (CallStep("register", sid + (10).to_bytes(8, "big")
                        + (30).to_bytes(8, "big")),
               CallStep("record", sid + (20).to_bytes(8, "big")
                        + (5).to_bytes(8, "big")),
               CallStep("status", sid))
        wasm_run, evm_run = executor.run_pair(seq)
        assert [o.status for o in wasm_run.outcomes] == ["ok"] * 3
        assert [o.compare_key() for o in wasm_run.outcomes] == \
            [o.compare_key() for o in evm_run.outcomes]
        assert wasm_run.state_digest == evm_run.state_digest

    def test_planted_shift_divergence_reproduces(self):
        target = load_target("div_shift")
        executor = DifferentialExecutor(target)
        args = (1).to_bytes(8, "big") + (64).to_bytes(8, "big")
        wasm_run, evm_run = executor.run_pair((CallStep("mix", args),))
        assert wasm_run.outcomes[0].compare_key() != \
            evm_run.outcomes[0].compare_key()


class TestPoolOracle:
    """The pooled run and the fresh-memory run must agree; a pool that
    hands back a dirty buffer is reported as a ``pool`` finding."""

    SOURCE = """
    fn put() { let b = alloc(8); store64(b, 4660); }
    fn peek() { let b = alloc(8); output(b, 8); }
    """

    def _judge(self, executor, sequence):
        from repro.fuzz.oracles import check_pool

        return check_pool("bleed", sequence, executor.run_wasm(sequence),
                          executor.run_fresh(sequence))

    def _in_thread(self, fn):
        import threading

        box = []
        thread = threading.Thread(target=lambda: box.append(fn()))
        thread.start()
        thread.join(timeout=60)
        return box[0]

    def _executor(self):
        from repro.fuzz.targets import FuzzTarget

        return DifferentialExecutor(
            FuzzTarget("bleed", self.SOURCE, ContractAbi(())))

    def test_honest_pool_matches_fresh_memory(self):
        executor = self._executor()
        sequence = (CallStep("put"), CallStep("peek"))
        assert self._in_thread(lambda: self._judge(executor, sequence)) == []
        gates = DifferentialExecutor(load_target("gates"))
        sequence = (CallStep("open", bytes(24)), CallStep("probe", bytes(8)))
        assert self._in_thread(lambda: self._judge(gates, sequence)) == []

    def test_dirty_buffer_is_reported(self, monkeypatch):
        import repro.vm.wasm.interpreter as interpreter

        def keep_dirty(buffer, size, extent):
            interpreter._pool.free.setdefault(size, []).append(buffer)

        monkeypatch.setattr(interpreter, "_release", keep_dirty)
        executor = self._executor()
        sequence = (CallStep("put"), CallStep("peek"))
        findings = self._in_thread(lambda: self._judge(executor, sequence))
        assert [f.kind for f in findings] == ["pool"]
        assert findings[0].call_index == 1


class TestCampaign:
    def test_replays_byte_identically(self):
        config = small_config(targets=("gates", "div_shift"), seed=13,
                              max_execs=80)
        first = run_fuzz(config).to_dict()
        second = run_fuzz(config).to_dict()
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)

    def test_constraint_assist_beats_pure_random(self):
        # Acceptance criterion: from fixed seeds the constraint-assisted
        # harness must cover strictly more branches than pure random
        # mutation on at least two example contracts, with the flips
        # measured.  `gates` needs three exact 64-bit comparisons to
        # open; `coldchain` gates on registered session ids.  Summing
        # over two seeds smooths out per-stream luck (disabling the
        # solver also perturbs every later random draw).
        edges = {"gates": [0, 0], "coldchain": [0, 0]}
        flips = {"gates": 0, "coldchain": 0}
        for seed in (7, 13):
            assisted = run_fuzz(FuzzConfig(
                targets=("gates", "coldchain"), seed=seed,
                max_execs=400, solver=True))
            blind = run_fuzz(FuzzConfig(
                targets=("gates", "coldchain"), seed=seed,
                max_execs=400, solver=False))
            for name in edges:
                edges[name][0] += assisted.stats[name].edges_wasm
                edges[name][1] += blind.stats[name].edges_wasm
                flips[name] += assisted.stats[name].constraint_flips
                assert assisted.stats[name].solver_attempts >= \
                    assisted.stats[name].constraint_flips
                assert blind.stats[name].solver_attempts == 0
                assert blind.stats[name].constraint_flips == 0
        for name, (on, off) in edges.items():
            assert on > off, (name, on, off)
            assert flips[name] > 0, name

    def test_detects_every_planted_bug(self):
        result = run_fuzz(FuzzConfig(
            targets=("div_shift", "leaky_log", "spin"), seed=99,
            max_execs=150))
        kinds = {f.kind for f in result.findings}
        assert {"divergence", "canary", "resource"} <= kinds
        assert "crash" not in kinds
        by_target = {f.target: f.kind for f in result.findings}
        assert by_target.get("div_shift") == "divergence"
        assert by_target.get("leaky_log") == "canary"
        assert by_target.get("spin") == "resource"

    def test_honest_targets_stay_clean(self):
        result = run_fuzz(FuzzConfig(
            targets=("greeter", "gates", "coldchain"), seed=11,
            max_execs=150))
        assert result.findings == []
        for name in ("greeter", "gates", "coldchain"):
            assert result.stats[name].execs >= 150

    def test_findings_replay_from_their_line(self):
        result = run_fuzz(FuzzConfig(
            targets=("div_shift",), seed=99, max_execs=120))
        assert result.findings
        finding = result.findings[0]
        kinds = {f.kind for f in replay(finding.target,
                                        encode_sequence(finding.sequence))}
        assert finding.kind in kinds

    def test_corpus_directory_reused_across_runs(self, tmp_path):
        directory = str(tmp_path / "corpus")
        first = run_fuzz(small_config(max_execs=80, corpus_dir=directory))
        assert first.stats["gates"].corpus_entries > 0
        reloaded = Corpus(directory + "/gates")  # one subdir per target
        assert reloaded.load() == first.stats["gates"].corpus_entries

    def test_to_dict_excludes_timing_by_default(self):
        result = run_fuzz(small_config(max_execs=40))
        assert "elapsed_s" not in result.to_dict()
        assert "elapsed_s" in result.to_dict(include_timing=True)


class TestFuzzTargets:
    def test_builtin_listing(self):
        names = target_names()
        for expected in ("greeter", "coldchain", "gates", "div_shift",
                         "leaky_log", "spin"):
            assert expected in names

    def test_load_target_from_path(self):
        target = load_target("examples/contracts/gates.cws")
        assert set(target.abi.names()) == {"open", "probe"}

    def test_unknown_target_raises(self):
        with pytest.raises(FileNotFoundError):
            load_target("no-such-target")


class TestFuzzCli:
    def test_list_targets(self, capsys):
        assert cli_main(["fuzz", "--list-targets"]) == 0
        out = capsys.readouterr().out
        assert "div_shift" in out and "gates" in out

    def test_campaign_with_expect_and_report(self, tmp_path, capsys):
        report = tmp_path / "fuzz.json"
        rc = cli_main(["fuzz", "--target", "div_shift", "--seed", "99",
                       "--max-execs", "120", "--expect", "divergence",
                       "--report", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["seed"] == 99
        assert any(f["kind"] == "divergence" for f in payload["findings"])

    def test_expect_fails_when_kind_absent(self, capsys):
        rc = cli_main(["fuzz", "--target", "greeter", "--seed", "3",
                       "--max-execs", "30", "--expect", "divergence"])
        assert rc == 1

    def test_replay_matches_expectation(self, capsys):
        rc = cli_main(["fuzz", "--target", "div_shift",
                       "--replay", "mix:" + (1).to_bytes(8, "big").hex()
                       + (64).to_bytes(8, "big").hex(),
                       "--expect", "divergence"])
        assert rc == 0

    def test_verify_determinism_flag(self, capsys):
        rc = cli_main(["fuzz", "--target", "gates", "--seed", "21",
                       "--max-execs", "40", "--verify-determinism"])
        assert rc == 0
        assert "determinism verified" in capsys.readouterr().out

    def test_fail_on_findings(self, capsys):
        rc = cli_main(["fuzz", "--target", "spin", "--seed", "99",
                       "--max-execs", "100", "--fail-on-findings"])
        assert rc == 1


class TestFuzzMetrics:
    def test_collect_fuzz_exports_counters(self):
        result = run_fuzz(small_config(max_execs=40))
        text = prometheus_text(fuzz_samples(result))
        for name in ("confide_fuzz_execs_total",
                     "confide_fuzz_coverage_edges",
                     "confide_fuzz_corpus_entries",
                     "confide_fuzz_findings_total",
                     "confide_fuzz_solver_attempts_total",
                     "confide_fuzz_constraint_flips_total"):
            assert name in text, name
        assert 'target="gates"' in text


class TestFindingFixtureParser:
    def test_parse_finding_roundtrip(self, tmp_path):
        path = tmp_path / "x.finding"
        path.write_text("# comment\nkind: divergence\ntarget: t\n"
                        "sequence: mix:00ff\n")
        fields = parse_finding_file(str(path))
        assert fields["kind"] == "divergence"
        assert fields["steps"] == (CallStep("mix", b"\x00\xff"),)

    def test_parse_finding_requires_fields(self, tmp_path):
        path = tmp_path / "bad.finding"
        path.write_text("kind: canary\n")
        with pytest.raises(ValueError):
            parse_finding_file(str(path))


class TestStaticDynamicComplementarity:
    def test_static_analyzer_misses_input_log_leak(self):
        # Pass 3's taint sources are confidential *storage reads*; a
        # secret that arrives in calldata and exits through the debug
        # log never touches one, so the static report is silent about
        # the very leak the dynamic canary oracle pins in
        # tests/fixtures/fuzz/canary_leaky_log.finding.
        target = load_target("leaky_log")
        executor = DifferentialExecutor(target)
        result = analyze_artifact(
            executor.wasm_artifact,
            extra_confidential=target.confidential_prefixes)
        leaks = [f for f in result.report.findings
                 if f.kind == "flow_log" and "put" in f.function]
        assert leaks == []
