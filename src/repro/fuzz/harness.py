"""The fuzz loop: corpus scheduling, constraint assist, oracles, repro.

One :func:`run_fuzz` call fuzzes each configured target for a fixed
number of executions (the deterministic budget; an optional wall-clock
cap can end a run early, at the price of replay identity).  All
randomness flows from a single ``random.Random(seed)``, every set
iteration is sorted, and no wall-clock value feeds a decision — so the
same seed and exec budget replay the identical run, byte for byte, on
any host.

The hybrid part (the optik shape): between mutation rounds the harness
looks for **one-sided branch sites** — coverage edges where only one
outcome has ever executed — matches them to the bytecode analyzer's
:class:`~repro.analysis.bytecode_flow.PathConstraint` for that site,
and asks :mod:`repro.fuzz.solver` for calldata taking the other side.
Every solved input that yields a new edge counts as a
``constraint_flip`` — the measured win over pure random mutation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.analysis.bytecode_flow import analyze_artifact
from repro.fuzz.corpus import CallStep, Corpus, decode_sequence
from repro.fuzz.executor import (FUZZ_GAS_LIMIT, FUZZ_MAX_STEPS,
                                 DifferentialExecutor)
from repro.fuzz.minimize import minimize
from repro.fuzz.mutate import Mutator
from repro.fuzz.oracles import OracleSuite
from repro.fuzz.solver import solve_constraint
from repro.fuzz.targets import load_target
from repro.obs.trace import CoverageMap, get_tracer

ASSIST_EVERY = 32        # mutation execs between constraint-assist rounds
ASSIST_SITES_PER_ROUND = 8
CANARY_PLANT_ONE_IN = 4  # plant fresh canaries in ~1/4 of mutants
FINDING_KINDS = ("divergence", "canary", "resource", "crash", "pool")


@dataclass
class FuzzConfig:
    """One fuzzing campaign."""

    targets: tuple = ("greeter",)
    seed: int = 20260807
    max_execs: int = 200            # per target; the deterministic budget
    time_budget_s: float | None = None  # optional secondary wall cap
    corpus_dir: str | None = None
    solver: bool = True
    max_seq_len: int = 4
    max_steps: int = FUZZ_MAX_STEPS
    gas_limit: int = FUZZ_GAS_LIMIT
    minimize_budget: int = 48       # oracle re-runs per finding


@dataclass
class TargetStats:
    """Per-target counters, all deterministic under a fixed budget."""

    execs: int = 0
    minimize_execs: int = 0
    edges_wasm: int = 0
    edges_evm: int = 0
    corpus_entries: int = 0
    solver_attempts: int = 0
    constraint_flips: int = 0
    findings: dict = field(default_factory=lambda: {
        k: 0 for k in FINDING_KINDS})

    def to_dict(self) -> dict:
        return {
            "execs": self.execs,
            "minimize_execs": self.minimize_execs,
            "edges_wasm": self.edges_wasm,
            "edges_evm": self.edges_evm,
            "corpus_entries": self.corpus_entries,
            "solver_attempts": self.solver_attempts,
            "constraint_flips": self.constraint_flips,
            "findings": dict(sorted(self.findings.items())),
        }


@dataclass
class FuzzResult:
    """Campaign outcome: minimized findings + per-target stats."""

    seed: int
    findings: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)   # target name -> TargetStats
    elapsed_s: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict:
        """Deterministic report (timing excluded unless asked for —
        the CI determinism check compares two of these byte-for-byte).
        """
        payload = {
            "seed": self.seed,
            "findings": [f.to_dict() for f in self.findings],
            "stats": {name: st.to_dict()
                      for name, st in sorted(self.stats.items())},
        }
        if include_timing:
            payload["elapsed_s"] = round(self.elapsed_s, 3)
            total = sum(st.execs for st in self.stats.values())
            payload["execs_per_second"] = round(
                total / self.elapsed_s, 1) if self.elapsed_s else 0.0
        return payload


def _constraint_sites(executor, wasm_constraints, evm_constraints):
    """Map coverage sites to their path constraints, per VM.

    CONFIDE-VM sites are ``(fidx, pc)``; constraint functions are
    export names (or ``func_N`` for helpers), resolved through the
    fused module's export table.  EVM sites are byte offsets, unique
    across the artifact, so the pc alone keys them.
    """
    label_to_fidx = {f"func_{i}": i
                     for i in range(len(executor.wasm_module.functions))}
    label_to_fidx.update(executor.wasm_module.exports)
    wasm_map = {}
    for c in wasm_constraints.constraints:
        fidx = label_to_fidx.get(c.function)
        if fidx is not None:
            wasm_map[(fidx, c.pc)] = c
    evm_map = {c.pc: c for c in evm_constraints.constraints}
    return wasm_map, evm_map


def _one_sided_sites(coverage, context, site_map):
    """Sites (with constraints) where only one branch outcome ran."""
    outcomes: dict = {}
    for ctx, site, outcome in coverage.edges:
        if ctx == context and isinstance(outcome, bool):
            outcomes.setdefault(site, set()).add(outcome)
    onesided = []
    for site in sorted(outcomes, key=repr):
        seen = outcomes[site]
        if len(seen) == 1 and site in site_map:
            onesided.append((site, not next(iter(seen))))
    return onesided


def _method_for(constraint, executor, abi):
    """The exported method whose calldata feeds a constraint site."""
    if constraint.function in executor.methods:
        return constraint.function
    return None


class _TargetLoop:
    """Fuzzing state for one target within a campaign."""

    def __init__(self, target, config: FuzzConfig, rng: random.Random,
                 coverage: CoverageMap):
        self.target = target
        self.config = config
        self.rng = rng
        self.coverage = coverage
        self.executor = DifferentialExecutor(
            target, coverage, max_steps=config.max_steps,
            gas_limit=config.gas_limit)
        wasm_res = analyze_artifact(
            self.executor.wasm_artifact,
            public_outputs=target.receipts_public)
        evm_res = analyze_artifact(
            self.executor.evm_artifact,
            public_outputs=target.receipts_public)
        self.suite = OracleSuite(target, target.abi,
                                 wasm_res.report.resources)
        self.wasm_sites, self.evm_sites = _constraint_sites(
            self.executor, wasm_res.constraints, evm_res.constraints)
        self.mutator = Mutator(rng, target.abi, config.max_seq_len)
        corpus_dir = (None if config.corpus_dir is None
                      else f"{config.corpus_dir}/{target.name}")
        self.corpus = Corpus(corpus_dir)
        self.stats = TargetStats()
        self.findings: list = []
        self._finding_keys: set = set()
        self._assist_tried: set = set()

    # -- execution ----------------------------------------------------------

    def execute(self, sequence, minimizing: bool = False) -> int:
        """Run + judge one sequence; returns newly covered edge count."""
        before = len(self.coverage)
        wasm_run, evm_run = self.executor.run_pair(sequence)
        fresh_run = self.executor.run_fresh(sequence)
        if minimizing:
            self.stats.minimize_execs += 1
        else:
            self.stats.execs += 1
        found = self.suite.judge(sequence, wasm_run, evm_run, fresh_run)
        new_edges = len(self.coverage) - before
        if new_edges and not minimizing:
            self.corpus.add(sequence)
        if not minimizing:
            for finding in found:
                self._record(finding)
        self._last_findings = found
        return new_edges

    def _reproduce_kind(self, kind):
        def predicate(candidate) -> bool:
            self.execute(candidate, minimizing=True)
            return any(f.kind == kind for f in self._last_findings)
        return predicate

    def _record(self, finding) -> None:
        key = finding.key()
        if key in self._finding_keys:
            return
        self._finding_keys.add(key)
        finding.seed = self.config.seed
        minimized = minimize(finding, self._reproduce_kind(finding.kind),
                             abi=self.target.abi,
                             budget=self.config.minimize_budget)
        finding.sequence = minimized
        self.stats.findings[finding.kind] = (
            self.stats.findings.get(finding.kind, 0) + 1)
        self.findings.append(finding)

    # -- canary planting ----------------------------------------------------

    def _plant_canaries(self, sequence):
        """High-entropy bytes in one step's secret fields."""
        seq = list(sequence)
        candidates = [
            i for i, step in enumerate(seq)
            if (spec := self.target.abi.spec(step.method)) is not None
            and spec.secret_ranges()
        ]
        if not candidates:
            return sequence
        i = candidates[self.rng.randrange(len(candidates))]
        spec = self.target.abi.spec(seq[i].method)
        blob = bytearray(seq[i].args)
        if len(blob) < spec.min_size:
            blob.extend(bytes(spec.min_size - len(blob)))
        for off, size in spec.secret_ranges():
            blob[off:off + size] = bytes(
                self.rng.randrange(256) for _ in range(size))
        seq[i] = CallStep(seq[i].method, bytes(blob))
        return tuple(seq)

    # -- constraint assist --------------------------------------------------

    def _base_args(self, method: str) -> bytes:
        """Richest known calldata for a method (latest corpus use)."""
        for sequence in reversed(self.corpus.entries):
            for step in reversed(sequence):
                if step.method == method:
                    return step.args
        spec = self.target.abi.spec(method)
        return spec.min_args() if spec is not None else b""

    def _base_sequence(self, method: str, args: bytes):
        """A corpus sequence with the target step's args swapped in —
        stateful branches need the prefix calls that set them up."""
        for sequence in reversed(self.corpus.entries):
            for j in range(len(sequence) - 1, -1, -1):
                if sequence[j].method == method:
                    seq = list(sequence)
                    seq[j] = CallStep(method, args)
                    return tuple(seq)
        return (CallStep(method, args),)

    def assist_round(self, budget_left) -> None:
        sites = []
        for vm, site_map in (("wasm", self.wasm_sites),
                             ("evm", self.evm_sites)):
            context = (self.target.name, vm)
            for site, want in _one_sided_sites(self.coverage, context,
                                               site_map):
                sites.append((vm, site, want))
        done = 0
        for vm, site, want in sites:
            if done >= ASSIST_SITES_PER_ROUND or budget_left() <= 0:
                return
            if (vm, site, want) in self._assist_tried:
                continue
            self._assist_tried.add((vm, site, want))
            constraint = (self.wasm_sites if vm == "wasm"
                          else self.evm_sites)[site]
            method = _method_for(constraint, self.executor, self.target.abi)
            if method is None:
                continue
            base = self._base_args(method)
            for candidate in solve_constraint(constraint, want, base,
                                              max_candidates=3):
                if budget_left() <= 0:
                    return
                self.stats.solver_attempts += 1
                sequence = self._base_sequence(method, candidate)
                if self.execute(sequence) > 0:
                    self.stats.constraint_flips += 1
                    break
            done += 1

    # -- the loop -----------------------------------------------------------

    def run(self, deadline: float | None) -> None:
        config = self.config

        def budget_left() -> int:
            if deadline is not None and time.monotonic() > deadline:
                return 0
            return config.max_execs - self.stats.execs

        # Seed round: minimal + one typed-random call per method.
        self.corpus.load()
        for spec in self.target.abi.methods:
            self.corpus.add((CallStep(spec.name, spec.min_args()),))
            self.corpus.add((CallStep(spec.name,
                                      spec.random_args(self.rng)),))
        for sequence in list(self.corpus.entries):
            if budget_left() <= 0:
                break
            self.execute(sequence)

        since_assist = 0
        while budget_left() > 0:
            parent = self.corpus.choice(self.rng)
            child = self.mutator.mutate(parent, self.corpus)
            if self.rng.randrange(CANARY_PLANT_ONE_IN) == 0:
                child = self._plant_canaries(child)
            self.execute(child)
            since_assist += 1
            if config.solver and since_assist >= ASSIST_EVERY:
                since_assist = 0
                self.assist_round(budget_left)

        self.stats.corpus_entries = len(self.corpus)
        self.stats.edges_wasm = len(
            self.coverage.edges_for((self.target.name, "wasm")))
        self.stats.edges_evm = len(
            self.coverage.edges_for((self.target.name, "evm")))


def run_fuzz(config: FuzzConfig) -> FuzzResult:
    """Run one deterministic campaign over every configured target."""
    rng = random.Random(config.seed)
    tracer = get_tracer()
    saved = tracer.coverage
    coverage = CoverageMap()
    tracer.coverage = coverage
    started = time.monotonic()
    deadline = (None if config.time_budget_s is None
                else started + config.time_budget_s)
    result = FuzzResult(seed=config.seed)
    try:
        for name in config.targets:
            target = load_target(name)
            loop = _TargetLoop(target, config, rng, coverage)
            loop.run(deadline)
            result.stats[target.name] = loop.stats
            result.findings.extend(loop.findings)
    finally:
        tracer.coverage = saved
    result.elapsed_s = time.monotonic() - started
    return result


def replay(target_name: str, line: str,
           max_steps: int = FUZZ_MAX_STEPS,
           gas_limit: int = FUZZ_GAS_LIMIT) -> list:
    """Re-execute one sequence line and return the oracle findings.

    This is the reproduction path for pinned fixtures, CI artifacts
    and ``repro fuzz --replay``: nothing but the target name and the
    sequence line is needed.
    """
    target = load_target(target_name)
    sequence = decode_sequence(line)
    tracer = get_tracer()
    saved = tracer.coverage
    tracer.coverage = CoverageMap()
    try:
        executor = DifferentialExecutor(target, tracer.coverage,
                                        max_steps=max_steps,
                                        gas_limit=gas_limit)
        wasm_res = analyze_artifact(executor.wasm_artifact,
                                    public_outputs=target.receipts_public)
        suite = OracleSuite(target, target.abi, wasm_res.report.resources)
        wasm_run, evm_run = executor.run_pair(sequence)
        return suite.judge(sequence, wasm_run, evm_run,
                           executor.run_fresh(sequence))
    finally:
        tracer.coverage = saved
