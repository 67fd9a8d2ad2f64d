"""Differential sequence execution: CONFIDE-VM and EVM side by side.

One :class:`DifferentialExecutor` owns both compiled artifacts of a
fuzz target and runs every candidate sequence twice — once per VM —
under branch coverage (:class:`~repro.obs.trace.CoverageMap`), then
hands both :class:`SequenceRun` transcripts to the oracles.

The CONFIDE-VM side runs on pooled linear memory, as the engine does
with OPT1 on; :meth:`DifferentialExecutor.run_fresh` replays it on
freshly allocated memory for the pool oracle, because a reused buffer
is where state would bleed between calls.

Comparability across the two storage models:

- CONFIDE-VM contracts write **logical** keys straight to the host
  context;
- the EVM routes the same logical traffic through
  :class:`~repro.vm.evm.interpreter.SlottedStorage`, which shreds each
  value into 32-byte slots (the real EVM storage model).

Comparing slot dumps to logical dumps would diff the storage adapters,
not the contracts, so the executor splices a :class:`LogicalRecorder`
between the EVM host bridge and the slot adapter: the recorder mirrors
every logical write while the slot layout still runs underneath.  Both
VMs then digest the same logical key space with
:func:`repro.storage.merkle.state_root`.  (CWScript storage moves only
through HOSTCALL host functions — the compiler never emits
SLOAD/SSTORE — so the recorder sees *all* storage traffic.)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import ContractError, OutOfGasError, TrapError, VMError
from repro.lang.compiler import compile_source
from repro.obs.trace import get_tracer
from repro.storage.merkle import state_root
from repro.vm.evm.interpreter import EvmInstance, EvmRevert
from repro.vm.host import AbortExecution, HostBridge, HostContext
from repro.vm.wasm.code_cache import prepare_module
from repro.vm.wasm.interpreter import ModuleTemplate, WasmInstance

# Per-call budgets: generous for honest contracts (the whole example
# suite runs in thousands of instructions) yet small enough that a
# runaway loop fails in milliseconds, not minutes.
FUZZ_MAX_STEPS = 60_000
FUZZ_GAS_LIMIT = 1_000_000


class FuzzHost(HostContext):
    """In-memory host for one VM's run of one sequence.

    Records every surface the oracles scan: logical state, logs, and
    the cross-contract wire (``call_contract`` arguments leave the
    enclave to reach the callee, so they are visible bytes even when
    receipts are sealed).
    """

    def __init__(self, caller: bytes = b"\xaa" * 20):
        self.state: dict[bytes, bytes] = {}
        self.logs: list[bytes] = []
        self.wire: list[bytes] = []
        self.input = b""
        self.caller = caller

    def get_input(self) -> bytes:
        return self.input

    def get_caller(self) -> bytes:
        return self.caller

    def storage_get(self, key: bytes) -> bytes | None:
        return self.state.get(bytes(key))

    def storage_set(self, key: bytes, value: bytes) -> None:
        self.state[bytes(key)] = bytes(value)

    def call_contract(self, address: bytes, method: str,
                      argument: bytes) -> bytes:
        self.wire.append(bytes(address) + b"|" + method.encode() + b"|"
                         + bytes(argument))
        return b""


class LogicalRecorder(HostContext):
    """Pass-through context that mirrors logical writes into a dict."""

    def __init__(self, inner: HostContext, mirror: dict):
        self._inner = inner
        self.mirror = mirror
        self.logs = inner.logs

    def get_input(self) -> bytes:
        return self._inner.get_input()

    def get_caller(self) -> bytes:
        return self._inner.get_caller()

    def storage_get(self, key: bytes) -> bytes | None:
        return self._inner.storage_get(key)

    def storage_set(self, key: bytes, value: bytes) -> None:
        self.mirror[bytes(key)] = bytes(value)
        self._inner.storage_set(key, value)

    def call_contract(self, address: bytes, method: str,
                      argument: bytes) -> bytes:
        return self._inner.call_contract(address, method, argument)

    def emit_log(self, data: bytes) -> None:
        self._inner.emit_log(data)


@dataclass
class CallOutcome:
    """Classified result of one call on one VM."""

    status: str               # ok | abort | revert | trap | resource | crash
    output: bytes = b""
    logs: tuple = ()
    error: str = ""
    instructions: int = 0

    def compare_key(self):
        """What must match across VMs.  Trap/crash/resource wording and
        cost accounting are VM-specific; contract-visible behavior —
        status, output bytes, abort message, emitted logs — is not."""
        detail = self.error if self.status == "abort" else ""
        out = self.output if self.status == "ok" else b""
        return (self.status, out, detail, self.logs)


@dataclass
class SequenceRun:
    """Transcript of one sequence on one VM."""

    vm: str
    outcomes: list[CallOutcome] = field(default_factory=list)
    state: dict = field(default_factory=dict)   # logical key -> value
    wire: list = field(default_factory=list)
    all_logs: list = field(default_factory=list)

    @property
    def state_digest(self) -> bytes:
        return state_root(self.state)


def classify_exception(exc: BaseException) -> tuple[str, str]:
    """Map an execution exception to an outcome status."""
    if isinstance(exc, AbortExecution):
        return "abort", str(exc)
    if isinstance(exc, EvmRevert):
        return "revert", exc.payload.hex()
    if isinstance(exc, OutOfGasError):
        return "resource", str(exc)
    if isinstance(exc, TrapError):
        if "out of fuel" in str(exc):
            return "resource", str(exc)
        return "trap", str(exc)
    if isinstance(exc, (VMError, ContractError)):
        return "trap", str(exc)
    return "crash", f"{type(exc).__name__}: {exc}"


class DifferentialExecutor:
    """Runs call sequences on both VMs for one fuzz target."""

    def __init__(self, target, coverage=None,
                 max_steps: int = FUZZ_MAX_STEPS,
                 gas_limit: int = FUZZ_GAS_LIMIT):
        self.target = target
        self.coverage = coverage
        self.max_steps = max_steps
        self.gas_limit = gas_limit
        self.wasm_artifact = compile_source(target.source, "wasm")
        self.evm_artifact = compile_source(target.source, "evm")
        patch = getattr(target, "evm_patch", None)
        if patch is not None:
            # Planted-bug fixtures transform the compiled bytecode to
            # re-introduce a since-fixed miscompilation (see targets.py).
            self.evm_artifact = dataclasses.replace(
                self.evm_artifact, code=patch(self.evm_artifact.code)
            )
        # Decode+validate+fuse once; every call shares the module (the
        # same pipeline the analyzer uses, so coverage pcs line up with
        # PathConstraint pcs).
        self.wasm_module = prepare_module(self.wasm_artifact.code)
        self.wasm_template = ModuleTemplate(self.wasm_module)
        self.methods = self.wasm_artifact.methods

    def _set_context(self, vm: str) -> None:
        if self.coverage is not None:
            self.coverage.context = (self.target.name, vm)

    def run_wasm(self, sequence, pooled: bool = True) -> SequenceRun:
        self._set_context("wasm")
        host = FuzzHost()
        run = SequenceRun(vm="wasm", state=host.state, wire=host.wire)
        for step in sequence:
            host.input = step.args
            before = len(host.logs)
            try:
                instance = WasmInstance(self.wasm_template, host,
                                        max_steps=self.max_steps,
                                        pooled=pooled)
                result = instance.run(step.method)
                outcome = CallOutcome(
                    "ok", result.output, tuple(host.logs[before:]),
                    instructions=result.instructions)
            except Exception as exc:  # noqa: BLE001 — oracle fodder
                status, detail = classify_exception(exc)
                outcome = CallOutcome(status, b"",
                                      tuple(host.logs[before:]), detail)
            run.outcomes.append(outcome)
        run.all_logs = list(host.logs)
        return run

    def run_evm(self, sequence) -> SequenceRun:
        self._set_context("evm")
        host = FuzzHost()       # slot-level persistence across calls
        mirror: dict[bytes, bytes] = {}
        run = SequenceRun(vm="evm", state=mirror, wire=host.wire)
        for step in sequence:
            host.input = step.args
            before = len(host.logs)
            try:
                instance = EvmInstance(self.evm_artifact.code, host,
                                       gas_limit=self.gas_limit)
                # Splice the logical recorder between the host bridge
                # and the slot adapter (instance.context is the
                # SlottedStorage wrapping `host`).
                recorder = LogicalRecorder(instance.context, mirror)
                instance.context = recorder
                instance._bridge = HostBridge(
                    recorder, instance.memory, instance.result,
                    expandable=True)
                result = instance.run(
                    self.evm_artifact.entry_for(step.method))
                outcome = CallOutcome(
                    "ok", result.output, tuple(host.logs[before:]),
                    instructions=result.instructions)
            except Exception as exc:  # noqa: BLE001 — oracle fodder
                status, detail = classify_exception(exc)
                outcome = CallOutcome(status, b"",
                                      tuple(host.logs[before:]), detail)
            run.outcomes.append(outcome)
        run.all_logs = list(host.logs)
        return run

    def run_fresh(self, sequence) -> SequenceRun:
        """The CONFIDE-VM run again on freshly allocated memory, outside
        coverage (it adds no edges; it only has to match)."""
        tracer = get_tracer()
        saved = tracer.coverage
        tracer.coverage = None
        try:
            return self.run_wasm(sequence, pooled=False)
        finally:
            tracer.coverage = saved

    def run_pair(self, sequence) -> tuple[SequenceRun, SequenceRun]:
        return self.run_wasm(sequence), self.run_evm(sequence)
