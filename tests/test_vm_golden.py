"""Golden CONFIDE-VM transcripts: the execution contract, pinned.

The fixture ``tests/fixtures/vm_golden.json`` records, per call, the
status, output, logs, executed-instruction count and trap text of

- every fuzz target's seed corpus (each method with minimal and typed
  random calldata, every method in order, and each pinned finding),
  with the branch-coverage edges and hit count each run records, at
  the fuzzer's budget and under a sweep of small step budgets, so fuel
  runs out inside basic blocks, at calls and at branches;
- the mixed serving workload (SCF-AR, ABS and coldchain on one
  Confidential-Engine): every deploy, setup and business receipt, then
  business transactions under small step budgets;
- seeded random raw modules, fused and unfused, that no compiler would
  emit: they underflow the operand stack, call host functions and
  functions with too few values, divide by zero, recurse and branch at
  random, under a sweep of small budgets.

Whatever changes how CONFIDE-VM runs code must leave every transcript
byte-identical.  Regenerate only when the semantics change on purpose:

    PYTHONPATH=src python tests/test_vm_golden.py --regenerate
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import sys

import pytest

from repro.fuzz.corpus import CallStep, decode_sequence, encode_sequence
from repro.fuzz.executor import FUZZ_MAX_STEPS, DifferentialExecutor
from repro.fuzz.targets import load_target, target_names
from repro.obs.trace import CoverageMap, get_tracer
from repro.vm.host import HOST_TABLE, HostContext
from repro.vm.wasm import interpreter
from repro.vm.wasm import opcodes as op
from repro.vm.wasm.interpreter import WasmInstance
from repro.vm.wasm.module import Function, Module, validate_module
from repro.vm.wasm.optimizer import fuse_module

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "vm_golden.json")
FINDINGS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", "fuzz")

# Small budgets: every value up to 64 (fuel runs out at each instruction
# of the first blocks), then a spread that lands deeper in loops.
SWEEP_STEPS = tuple(range(65)) + (
    77, 96, 100, 128, 150, 199, 256, 300, 401, 512, 640, 777, 1000,
    1500, 2048, 3001, 5000)
MIX_SWEEP_STEPS = (0, 1, 2, 5, 13, 40, 97, 250, 613, 1200, 2500, 7000)
MIX_SEED = 5
MIX_BUSINESS_TXS = 24


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


# -- fuzz targets --------------------------------------------------------------

def target_sequences(target) -> list[tuple]:
    """The seed corpus the golden run replays for one target."""
    rng = random.Random(f"golden-{target.name}")
    sequences = []
    for spec in target.abi.methods:
        sequences.append((CallStep(spec.name, spec.min_args()),))
        for _ in range(2):
            sequences.append((CallStep(spec.name, spec.random_args(rng)),))
    sequences.append(tuple(CallStep(spec.name, spec.min_args())
                           for spec in target.abi.methods))
    sequences.append(tuple(CallStep(spec.name, spec.random_args(rng))
                           for spec in target.abi.methods for _ in range(2)))
    for name in sorted(os.listdir(FINDINGS)):
        if not name.endswith(".finding"):
            continue
        with open(os.path.join(FINDINGS, name)) as f:
            fields = dict(line.split(": ", 1) for line in f.read().splitlines()
                          if ": " in line)
        if fields.get("target") == target.name:
            sequences.append(decode_sequence(fields["sequence"]))
    return sequences


def wasm_transcript(executor, sequence) -> dict:
    """One sequence on CONFIDE-VM: per-call outcomes plus coverage."""
    tracer = get_tracer()
    saved = tracer.coverage
    tracer.coverage = coverage = CoverageMap()
    try:
        run = executor.run_wasm(sequence)
    finally:
        tracer.coverage = saved
    calls = [[o.status, o.output.hex(), [log.hex() for log in o.logs],
              o.instructions, o.error] for o in run.outcomes]
    edges = sorted([list(site), outcome]
                   for _context, site, outcome in coverage.edges)
    return {"calls": calls, "state": run.state_digest.hex(),
            "wire": [w.hex() for w in run.wire],
            "branches": coverage.branches, "edges": _digest(edges)}


def target_golden(name: str) -> dict:
    target = load_target(name)
    executor = DifferentialExecutor(target)
    cases = {}
    for sequence in target_sequences(target):
        executor.max_steps = FUZZ_MAX_STEPS
        full = wasm_transcript(executor, sequence)
        sweep = []
        for steps in SWEEP_STEPS:
            executor.max_steps = steps
            sweep.append(wasm_transcript(executor, sequence))
        cases[encode_sequence(sequence)] = {"full": full,
                                            "sweep": _digest(sweep)}
    return cases


# -- the mixed serving workload ----------------------------------------------

def _receipt_row(workload: str, receipt) -> list:
    return [workload, receipt.success, receipt.output.hex(), receipt.error,
            [log.hex() for log in receipt.logs], receipt.instructions,
            receipt.storage_reads, receipt.storage_writes, receipt.kind]


def mix_golden() -> dict:
    from repro.core import ConfidentialEngine, bootstrap_founder
    from repro.crypto.ecc import decode_point
    from repro.storage import MemoryKV
    from repro.workloads.mix import TrafficMix

    engine = ConfidentialEngine(MemoryKV())
    bootstrap_founder(engine.km)
    mix = TrafficMix(decode_point(engine.provision_from_km()), seed=MIX_SEED)
    rows = []
    requests = mix.deploy_transactions() + mix.setup_transactions()
    requests += [mix.next_request() for _ in range(MIX_BUSINESS_TXS)]
    for request in requests:
        rows.append(_receipt_row(request.workload,
                                 engine.execute(request.tx).receipt))
    sweep = []
    for steps in MIX_SWEEP_STEPS:
        # The step budget is fixed when the CS enclave is built: restart
        # it with the new budget over the same store and platform.
        engine = ConfidentialEngine(
            engine.kv, dataclasses.replace(engine.config, max_steps=steps),
            platform=engine.platform,
        )
        engine.restore_keys_from_storage()
        for _ in range(3):
            request = mix.next_request()
            sweep.append([steps] + _receipt_row(
                request.workload, engine.execute(request.tx).receipt))
    return {"receipts": rows, "sweep": sweep}


# -- random raw modules ---------------------------------------------------------

RAW_MODULES = 60
RAW_STEPS = tuple(range(25)) + (100, 1000, 20000)


class RawHost(HostContext):
    """Host state for one raw-module run."""

    def __init__(self):
        self.logs: list[bytes] = []
        self.store: dict[bytes, bytes] = {}

    def get_input(self) -> bytes:
        return bytes(range(16))

    def get_caller(self) -> bytes:
        return b"\xaa" * 20

    def storage_get(self, key: bytes) -> bytes | None:
        return self.store.get(bytes(key))

    def storage_set(self, key: bytes, value: bytes) -> None:
        self.store[bytes(key)] = bytes(value)

    def call_contract(self, address: bytes, method: str, argument: bytes) -> bytes:
        return b"xyz"


def _raw_function(rng, nfuncs, nparams, nresults, nlocals) -> Function:
    plain = [op.NOP, op.DROP, op.SELECT, op.ADD, op.SUB, op.MUL, op.DIV_S,
             op.DIV_U, op.REM_S, op.REM_U, op.AND, op.OR, op.XOR, op.SHL,
             op.SHR_U, op.SHR_S, op.EQZ, op.EQ, op.NE, op.LT_S, op.LT_U,
             op.GT_S, op.GT_U, op.LE_S, op.LE_U, op.GE_S, op.GE_U,
             op.MEMCOPY, op.MEMFILL, op.MEMSIZE]
    size = rng.randint(3, 30)
    nvars = nparams + nlocals
    code = []
    for _ in range(size - 1):
        k = rng.random()
        if k < 0.25:
            code.append((op.CONST, rng.choice(
                [0, 1, 2, 5, 8, 64, 1000, -1, -8, 65535, 1 << 20, 1 << 63]), 0))
        elif k < 0.4 and nvars:
            code.append((rng.choice([op.LOCAL_GET, op.LOCAL_SET, op.LOCAL_TEE]),
                         rng.randrange(nvars), 0))
        elif k < 0.65:
            code.append((rng.choice(plain), 0, 0))
        elif k < 0.72:
            code.append((rng.choice([op.LOAD8_U, op.LOAD16_U, op.LOAD32_U,
                                     op.LOAD64]), rng.choice([0, 3, 65530]), 0))
        elif k < 0.8:
            code.append((rng.choice([op.STORE8, op.STORE16, op.STORE32,
                                     op.STORE64]), rng.choice([0, 5, 65530]), 0))
        elif k < 0.88:
            code.append((rng.choice([op.JMP, op.JMP_IF, op.JMP_IFZ]),
                         rng.randrange(size), 0))
        elif k < 0.93:
            code.append((op.CALL, rng.randrange(nfuncs), 0))
        elif k < 0.97:
            code.append((op.CALL_HOST, rng.randrange(len(HOST_TABLE)), 0))
        else:
            code.append((rng.choice([op.UNREACHABLE, op.RETURN]), 0, 0))
    code.append((op.RETURN, 0, 0))
    return Function(nparams, nlocals, nresults, code)


def _raw_run(module, steps) -> list:
    host = RawHost()
    tracer = get_tracer()
    saved = tracer.coverage
    tracer.coverage = coverage = CoverageMap()
    try:
        result = WasmInstance(module, host, max_steps=steps).run("main")
        outcome = ["ok", result.output.hex(), result.instructions]
    except Exception as exc:  # noqa: BLE001 — the transcript records it
        outcome = ["error", type(exc).__name__, str(exc)]
    finally:
        tracer.coverage = saved
    edges = sorted([list(site), outcome_]
                   for _context, site, outcome_ in coverage.edges)
    return outcome + [[log.hex() for log in host.logs],
                      sorted((k.hex(), v.hex()) for k, v in host.store.items()),
                      coverage.branches, _digest(edges)]


def raw_golden() -> list:
    rng = random.Random("golden-raw")
    digests = []
    for _ in range(RAW_MODULES):
        nfuncs = rng.randint(1, 3)
        functions = [_raw_function(rng, nfuncs, 0, 1, rng.randint(0, 3))] + [
            _raw_function(rng, nfuncs, rng.randint(0, 2), rng.randint(0, 1),
                          rng.randint(0, 2)) for _ in range(nfuncs - 1)]
        module = Module(functions=functions, hosts=list(HOST_TABLE),
                        exports={"main": 0}, memory_pages=1)
        for variant in (module, fuse_module(module)):
            validate_module(variant)
            digests.append(_digest([_raw_run(variant, steps)
                                    for steps in RAW_STEPS]))
    return digests


def generate() -> dict:
    return {"targets": {name: target_golden(name) for name in target_names()},
            "mix": mix_golden(), "raw": raw_golden()}


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURE) as f:
        return json.load(f)


@pytest.mark.parametrize("name", target_names())
def test_fuzz_target_transcripts(golden, name):
    expected = golden["targets"][name]
    actual = target_golden(name)
    assert sorted(actual) == sorted(expected)
    for line, case in expected.items():
        assert actual[line]["full"] == case["full"], line
        assert actual[line]["sweep"] == case["sweep"], line


def test_mix_transcripts(golden):
    actual = mix_golden()
    for i, (want, got) in enumerate(zip(golden["mix"]["receipts"],
                                        actual["receipts"])):
        assert got == want, i
    assert len(actual["receipts"]) == len(golden["mix"]["receipts"])
    assert actual["sweep"] == golden["mix"]["sweep"]


def test_raw_module_transcripts(golden):
    assert raw_golden() == golden["raw"]


def test_chunked_translation_keeps_every_transcript(golden, monkeypatch):
    # Functions longer than a chunk are translated a group of regions at
    # a time, with their locals in a list between groups; with five-
    # instruction chunks nearly every function here is, and no
    # transcript may move.
    monkeypatch.setattr(interpreter, "_CHUNK", 5)
    for name in target_names():
        assert target_golden(name) == golden["targets"][name], name
    assert mix_golden() == golden["mix"]
    assert raw_golden() == golden["raw"]


if __name__ == "__main__":
    if "--regenerate" not in sys.argv[1:]:
        sys.exit("usage: test_vm_golden.py --regenerate")
    with open(FIXTURE, "w") as f:
        json.dump(generate(), f, indent=1, sort_keys=True)
        f.write("\n")
