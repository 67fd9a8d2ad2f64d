"""Pass 3 — bytecode-level confidentiality flow analysis.

Pass 1 (``repro.analysis.taint``) needs CWScript *source*; a byzantine
peer gossiping a sourceless artifact used to get only the structural
checks of Pass 2.  This pass closes that hole: an abstract interpreter
over both deployable artifact formats — CONFIDE-VM modules (analyzed in
their *fused* OPT4 form, superinstructions included, because that is
what executes) and EVM bytecode — tracks a confidentiality lattice
through the operand stack, locals, linear memory and storage/host-call
effects.

sources
    ``storage_get`` under a key whose statically-resolved byte prefix
    the policy classifies confidential.  Without source there are no
    ``//@confidential-keys`` directives, so the bytecode policy is
    seeded from the CCLe schema's confidential key classes (the
    ``ccle:`` prefix) plus explicit extras
    (``repro analyze --confidential-prefix``).

sinks
    ``storage_set`` under a key not provably confidential, ``log`` /
    ``LOG0`` (the public event stream), ``output`` / ``RETURN`` (return
    data), ``abort`` / ``REVERT`` (revert payloads), and
    ``call_contract`` arguments.  Unlike the source pass, return data
    and revert payloads *are* sinks here: a sourceless artifact may be
    deployed to the Public-Engine, where receipts travel in plaintext.

declassify
    The ``declassify(ptr, len)`` host call (a runtime no-op) is the
    audited escape hatch: the analyzer clears the region's taint and
    records the site.  Source-level ``declassify(expr)`` is erased by
    the compiler before codegen, which is why Pass 3 does not re-check
    the source-directive prefixes — Pass 1 already checked those with
    declassify fidelity.

Alongside the lattice the pass computes per-function static resource
bounds (max operand-stack depth, memory high-water, a worst-case cycle
estimate priced with the CycleAccountant cost table) and records a
:class:`PathConstraints` table — per-branch comparison operands
symbolically traced to inputs — the hook the ROADMAP's coverage-guided
fuzzer consumes.

Documented imprecision (mirrors Pass 1's spirit):

- reads under keys the interpreter cannot resolve to a byte prefix are
  NOT sources; writes under such keys with tainted values ARE findings;
- a store through an unknown address folds its taint into a memory-wide
  "blanket" that every later load absorbs (sound, and free of false
  positives on artifacts with no confidential sources);
- implicit flows are coarse: once a branch condition is tainted, every
  later sink in that function carries the condition's taint;
- call inlining is depth-capped; past the cap the callee is havocked
  (memory knowledge dropped, result unknown) without findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import (
    FLOW_CALL_CONTRACT,
    FLOW_LOG,
    FLOW_OUTPUT,
    FLOW_REVERT,
    FLOW_STORAGE_SET,
    AnalysisReport,
    Declassification,
    Finding,
    FunctionResources,
)
from repro.analysis.taint import CCLE_PREFIX, KEY_CONFIDENTIAL, KEY_PUBLIC, Policy
from repro.errors import VMError
from repro.tee.transitions import DEFAULT_COST_MODEL
from repro.vm import host as host_mod
from repro.vm.disasm import evm_instruction_window, wasm_instruction_window
from repro.vm.evm import opcodes as evm_op
from repro.vm.wasm import opcodes as op
from repro.vm.wasm.module import Module, decode_module
from repro.vm.wasm.optimizer import fuse_module

_EMPTY: frozenset = frozenset()

#: value-set cap: beyond this many possible concrete values, "unknown"
_CONST_CAP = 8
#: recursion guard for call inlining
_MAX_INLINE_DEPTH = 12
#: per-pc join/revisit cap before widening to unknown
_MAX_VISITS = 64
#: overall abstract-step budget per analyzed entry
_MAX_STEPS = 200_000

_M64 = (1 << 64) - 1
_M256 = (1 << 256) - 1

_OCALL = int(DEFAULT_COST_MODEL.ocall_cycles)
_ECALL = int(DEFAULT_COST_MODEL.ecall_cycles)


# ---------------------------------------------------------------------------
# Symbolic expressions (rendered for PathConstraints)
# ---------------------------------------------------------------------------

def render_sym(sym) -> str:
    """Human/fuzzer-readable rendering of a symbolic expression tree."""
    if sym is None:
        return "?"
    tag = sym[0]
    if tag == "const":
        return str(sym[1])
    if tag == "input":
        return f"input[{sym[1]}:{sym[1] + sym[2]}]"
    if tag == "input_size":
        return "input_size"
    if tag == "storage":
        return f"storage('{sym[1]}')[{sym[2]}:{sym[2] + sym[3]}]"
    if tag == "storage_len":
        return f"storage_len('{sym[1]}')"
    if tag == "caller":
        return "caller"
    if tag == "bin":
        return f"({sym[1]} {render_sym(sym[2])} {render_sym(sym[3])})"
    if tag == "cmp":
        return f"({sym[1]} {render_sym(sym[2])} {render_sym(sym[3])})"
    return "?"


def sym_to_json(sym) -> dict | None:
    """Structured (JSON-stable) form of a symbolic expression tree.

    This is the machine-readable companion to :func:`render_sym`: one
    record per node with an explicit ``op`` discriminator, so the
    fuzzer's constraint solver and external tools consume the same
    format ``repro analyze --bytecode --json`` emits.
    """
    if sym is None:
        return None
    tag = sym[0]
    if tag == "const":
        return {"op": "const", "value": sym[1]}
    if tag == "input":
        return {"op": "input", "offset": sym[1], "len": sym[2]}
    if tag == "input_size":
        return {"op": "input_size"}
    if tag == "storage":
        return {"op": "storage", "tag": sym[1], "offset": sym[2],
                "len": sym[3]}
    if tag == "storage_len":
        return {"op": "storage_len", "tag": sym[1]}
    if tag == "caller":
        return {"op": "caller"}
    if tag == "bin":
        return {"op": "bin", "fn": sym[1],
                "args": [sym_to_json(sym[2]), sym_to_json(sym[3])]}
    if tag == "cmp":
        return {"op": "cmp", "kind": sym[1],
                "args": [sym_to_json(sym[2]), sym_to_json(sym[3])]}
    return {"op": "unknown"}


def sym_input_bytes(sym) -> set[tuple[int, int]]:
    """All ``(offset, length)`` input-byte ranges a sym tree reads."""
    if sym is None:
        return set()
    tag = sym[0]
    if tag == "input":
        return {(sym[1], sym[2])}
    if tag in ("bin", "cmp"):
        return sym_input_bytes(sym[2]) | sym_input_bytes(sym[3])
    return set()


_CMP_KIND_NAMES = {
    op.CMP_EQ: "eq", op.CMP_NE: "ne",
    op.CMP_LT_S: "lt_s", op.CMP_LT_U: "lt_u",
    op.CMP_GT_S: "gt_s", op.CMP_GT_U: "gt_u",
    op.CMP_LE_S: "le_s", op.CMP_LE_U: "le_u",
    op.CMP_GE_S: "ge_s", op.CMP_GE_U: "ge_u",
}

_CMP_INVERT_NAMES = {
    "eq": "ne", "ne": "eq", "lt_s": "ge_s", "lt_u": "ge_u",
    "gt_s": "le_s", "gt_u": "le_u", "le_s": "gt_s", "le_u": "gt_u",
    "ge_s": "lt_s", "ge_u": "lt_u", "truthy": "falsy", "falsy": "truthy",
}


@dataclass(frozen=True)
class PathConstraint:
    """One conditional branch: the comparison guarding the *taken* edge.

    ``lhs``/``rhs`` are symbolic operand renderings traced back to the
    inputs that produced them (``input[0:8]``, ``const``s, storage
    reads); ``lhs_sym``/``rhs_sym`` carry the raw symbolic trees —
    exactly what a coverage-guided fuzzer needs to solve for the
    branch.  ``kind`` always describes the relation that holds on the
    *taken* edge (JMP_IFZ kinds arrive pre-inverted).
    """

    function: str
    pc: int
    kind: str   # eq/ne/lt_s/... or truthy/falsy
    lhs: str
    rhs: str
    taken: int        # branch-taken target (instr index / byte offset)
    fallthrough: int
    lhs_sym: tuple | None = None
    rhs_sym: tuple | None = None

    def input_bytes(self) -> list[tuple[int, int]]:
        """Sorted ``(offset, length)`` input ranges both sides read."""
        return sorted(sym_input_bytes(self.lhs_sym)
                      | sym_input_bytes(self.rhs_sym))

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "pc": self.pc,
            "kind": self.kind,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "taken": self.taken,
            "fallthrough": self.fallthrough,
            "lhs_sym": sym_to_json(self.lhs_sym),
            "rhs_sym": sym_to_json(self.rhs_sym),
            "input_bytes": [list(r) for r in self.input_bytes()],
        }


@dataclass
class PathConstraints:
    """All branch constraints recovered from one artifact."""

    constraints: list[PathConstraint] = field(default_factory=list)

    def for_function(self, function: str) -> list[PathConstraint]:
        return [c for c in self.constraints if c.function == function]

    def to_list(self) -> list[dict]:
        return [c.to_dict() for c in self.constraints]


# ---------------------------------------------------------------------------
# Abstract values and memory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbsVal:
    """One abstract stack/local slot: taint x value-set x symbolic expr."""

    taint: frozenset = _EMPTY
    consts: frozenset | None = None  # possible concrete values, None = any
    sym: tuple | None = None

    def const(self) -> int | None:
        if self.consts is not None and len(self.consts) == 1:
            return next(iter(self.consts))
        return None


_UNKNOWN = AbsVal()


def _cv(value: int) -> AbsVal:
    return AbsVal(consts=frozenset([value]), sym=("const", value))


def _join_val(a: AbsVal, b: AbsVal) -> AbsVal:
    if a is b:
        return a
    if a.consts is None or b.consts is None:
        consts = None
    else:
        merged = a.consts | b.consts
        consts = merged if len(merged) <= _CONST_CAP else None
    return AbsVal(
        taint=a.taint | b.taint,
        consts=consts,
        sym=a.sym if a.sym == b.sym else None,
    )


def _binop(name, a: AbsVal, b: AbsVal, fn, mask: int) -> AbsVal:
    consts = None
    if a.consts is not None and b.consts is not None:
        out = set()
        for x in a.consts:
            for y in b.consts:
                try:
                    out.add(fn(x, y) & mask)
                except (ZeroDivisionError, OverflowError):
                    out = None
                    break
                if len(out) > _CONST_CAP:
                    out = None
                    break
            if out is None:
                break
        consts = frozenset(out) if out is not None else None
    sym = None
    if a.sym is not None and b.sym is not None:
        sym = ("bin", name, a.sym, b.sym)
    return AbsVal(taint=a.taint | b.taint, consts=consts, sym=sym)


class AbsMemory:
    """Abstract linear memory: known bytes, per-byte taint, and symbolic
    regions for input/storage-derived buffers.

    Absent ``known`` entries read as zero (linear memory is zero
    initialised) until ``havoc`` is set by a store through an unknown
    address, after which absent entries are unknown and ``blanket``
    carries the taint such stores may have deposited anywhere.
    """

    __slots__ = ("known", "taint", "blanket", "regions", "havoc")

    def __init__(self):
        self.known: dict[int, int] = {}
        self.taint: dict[int, frozenset] = {}
        self.blanket: frozenset = _EMPTY
        # (kind, mem_start, origin_offset_or_tag, length)
        self.regions: list[tuple] = []
        self.havoc: bool = False

    def copy(self) -> "AbsMemory":
        out = AbsMemory()
        out.known = dict(self.known)
        out.taint = dict(self.taint)
        out.blanket = self.blanket
        out.regions = list(self.regions)
        out.havoc = self.havoc
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AbsMemory)
            and self.known == other.known
            and self.taint == other.taint
            and self.blanket == other.blanket
            and self.regions == other.regions
            and self.havoc == other.havoc
        )

    # -- reads ----------------------------------------------------------

    def read_byte(self, addr: int) -> int | None:
        value = self.known.get(addr)
        if value is None and not self.havoc:
            return 0
        return value

    def read_bytes(self, addr: int, length: int) -> bytes | None:
        out = bytearray()
        for i in range(length):
            value = self.read_byte(addr + i)
            if value is None:
                return None
            out.append(value)
        return bytes(out)

    def read_prefix(self, addr: int, length: int) -> bytes:
        """Leading run of statically-known bytes (may be shorter than
        ``length``) — enough for prefix classification."""
        out = bytearray()
        for i in range(length):
            value = self.read_byte(addr + i)
            if value is None:
                break
            out.append(value)
        return bytes(out)

    def read_taint(self, addr: int, length: int) -> frozenset:
        out = set(self.blanket)
        for i in range(length):
            out |= self.taint.get(addr + i, _EMPTY)
        return frozenset(out)

    def region_sym(self, addr: int, width: int) -> tuple | None:
        """Symbolic value for a load fully inside a tracked region."""
        for kind, start, origin, length in self.regions:
            if start <= addr and addr + width <= start + length:
                off = addr - start
                if kind == "input":
                    return ("input", origin + off, width)
                return ("storage", origin, off, width)
        return None

    # -- writes ---------------------------------------------------------

    def _clear_regions(self, addr: int, length: int) -> None:
        kept = []
        for region in self.regions:
            _kind, start, _origin, rlen = region
            if start + rlen <= addr or addr + length <= start:
                kept.append(region)
        self.regions = kept

    def write_bytes(self, addr: int, data: bytes, taint: frozenset) -> None:
        self._clear_regions(addr, len(data))
        for i, byte in enumerate(data):
            self.known[addr + i] = byte
            if taint:
                self.taint[addr + i] = self.taint.get(addr + i, _EMPTY) | taint
            else:
                self.taint.pop(addr + i, None)

    def write_unknown(self, addr: int, length: int, taint: frozenset) -> None:
        """Store of statically-unknown *values* at a known address."""
        self._clear_regions(addr, length)
        for i in range(length):
            self.known.pop(addr + i, None)
            if taint:
                self.taint[addr + i] = self.taint.get(addr + i, _EMPTY) | taint
            else:
                self.taint.pop(addr + i, None)
        if self.havoc:
            # absent known entries are already "unknown"; nothing else to do
            pass

    def write_unknown_addr(self, taint: frozenset) -> None:
        """Store through an address the analyzer cannot resolve."""
        self.havoc = True
        self.known.clear()
        self.regions = []
        self.blanket = self.blanket | taint

    def add_region(self, kind: str, start: int, origin, length: int) -> None:
        if length <= 0:
            return
        self._clear_regions(start, length)
        self.regions.append((kind, start, origin, length))

    def clear_taint(self, addr: int, length: int) -> None:
        for i in range(length):
            self.taint.pop(addr + i, None)

    def all_taint(self) -> frozenset:
        out = set(self.blanket)
        for t in self.taint.values():
            out |= t
        return frozenset(out)

    @staticmethod
    def join(a: "AbsMemory", b: "AbsMemory") -> "AbsMemory":
        out = AbsMemory()
        out.havoc = a.havoc or b.havoc
        for addr in set(a.known) | set(b.known):
            va, vb = a.read_byte(addr), b.read_byte(addr)
            if va is not None and va == vb:
                out.known[addr] = va
        for addr in set(a.taint) | set(b.taint):
            merged = a.taint.get(addr, _EMPTY) | b.taint.get(addr, _EMPTY)
            if merged:
                out.taint[addr] = merged
        out.blanket = a.blanket | b.blanket
        out.regions = [r for r in a.regions if r in b.regions]
        return out


# ---------------------------------------------------------------------------
# Shared analysis context
# ---------------------------------------------------------------------------

class _Ctx:
    """Findings/constraints/resources accumulated across one artifact."""

    def __init__(self, policy: Policy, public_outputs: bool = True):
        self.policy = policy
        # Whether return data / revert payloads are public sinks.  True
        # for the Public-Engine (plaintext receipts) and the strict CLI
        # default; False for Confidential-Engine admission, where
        # receipts are sealed under k_tx and only the transaction owner
        # can read them (T-Protocol).
        self.public_outputs = public_outputs
        self.findings: dict[tuple, Finding] = {}
        self.declass: dict[tuple, Declassification] = {}
        self.sources: set[str] = set()
        self.constraints: dict[tuple, PathConstraint] = {}
        self.steps = 0
        # per-function-label resource tracking
        self.max_stack: dict[str, int] = {}
        self.mem_high: dict[str, int] = {}
        self.cycle_cost: dict[str, dict[int, int]] = {}  # label -> pc -> cost
        self.has_loops: dict[str, bool] = {}

    def budget_ok(self) -> bool:
        self.steps += 1
        return self.steps <= _MAX_STEPS

    def note_stack(self, label: str, depth: int) -> None:
        if depth > self.max_stack.get(label, 0):
            self.max_stack[label] = depth

    def note_mem(self, label: str, high: int) -> None:
        if high > self.mem_high.get(label, 0):
            self.mem_high[label] = high

    def note_cost(self, label: str, pc: int, cost: int) -> None:
        self.cycle_cost.setdefault(label, {})[pc] = cost

    def note_loop(self, label: str) -> None:
        self.has_loops[label] = True

    def sink(self, kind: str, message: str, function: str, pc: int,
             window: str, detail: str, taint: frozenset) -> None:
        if not taint:
            return
        if kind in (FLOW_OUTPUT, FLOW_REVERT) and not self.public_outputs:
            return
        tags = ",".join(sorted(taint))
        key = (kind, function, pc, tags)
        if key in self.findings:
            return
        self.findings[key] = Finding(
            kind=kind, message=message, function=function,
            detail=detail or tags, pc=pc, window=window,
        )

    def declassify(self, function: str, pc: int) -> None:
        self.declass[(function, pc)] = Declassification(function, pc, 0)

    def constraint(self, c: PathConstraint) -> None:
        self.constraints.setdefault(
            (c.function, c.pc, c.kind, c.lhs, c.rhs), c
        )

    def resources(self) -> list[FunctionResources]:
        labels = (set(self.max_stack) | set(self.mem_high)
                  | set(self.cycle_cost) | set(self.has_loops))
        out = []
        for label in sorted(labels):
            cycles = _ECALL + sum(self.cycle_cost.get(label, {}).values())
            out.append(FunctionResources(
                function=label,
                max_stack=self.max_stack.get(label, 0),
                memory_high_water=self.mem_high.get(label, 0),
                cycle_estimate=cycles,
                has_loops=self.has_loops.get(label, False),
            ))
        return out


def _classify(policy: Policy, tag: bytes | None) -> str:
    return policy.classify_key(tag)


def _tag_str(tag: bytes) -> str:
    return tag.decode("latin-1")


# ---------------------------------------------------------------------------
# CONFIDE-VM (wasm) abstract interpreter
# ---------------------------------------------------------------------------

_WASM_BIN_OPS = {
    op.ADD: ("add", lambda x, y: x + y),
    op.SUB: ("sub", lambda x, y: x - y),
    op.MUL: ("mul", lambda x, y: x * y),
    op.AND: ("and", lambda x, y: x & y),
    op.OR: ("or", lambda x, y: x | y),
    op.XOR: ("xor", lambda x, y: x ^ y),
    op.SHL: ("shl", lambda x, y: x << (y & 63)),
    op.SHR_U: ("shr_u", lambda x, y: x >> (y & 63)),
}

_WASM_CMP_OPS = {
    op.EQ: "eq", op.NE: "ne", op.LT_S: "lt_s", op.LT_U: "lt_u",
    op.GT_S: "gt_s", op.GT_U: "gt_u", op.LE_S: "le_s", op.LE_U: "le_u",
    op.GE_S: "ge_s", op.GE_U: "ge_u",
}

_LOAD_WIDTHS = {op.LOAD8_U: 1, op.LOAD16_U: 2, op.LOAD32_U: 4, op.LOAD64: 8}
_STORE_WIDTHS = {op.STORE8: 1, op.STORE16: 2, op.STORE32: 4, op.STORE64: 8}


@dataclass
class _WasmState:
    stack: list
    locals: list
    mem: AbsMemory
    pc_taint: frozenset

    def copy(self) -> "_WasmState":
        return _WasmState(list(self.stack), list(self.locals),
                          self.mem.copy(), self.pc_taint)


def _join_wasm_states(a: _WasmState, b: _WasmState) -> _WasmState | None:
    if len(a.stack) != len(b.stack):
        return None  # structurally invalid; Pass 2 reports it
    return _WasmState(
        [_join_val(x, y) for x, y in zip(a.stack, b.stack)],
        [_join_val(x, y) for x, y in zip(a.locals, b.locals)],
        AbsMemory.join(a.mem, b.mem),
        a.pc_taint | b.pc_taint,
    )


def _wasm_states_eq(a: _WasmState, b: _WasmState) -> bool:
    return (a.stack == b.stack and a.locals == b.locals
            and a.mem == b.mem and a.pc_taint == b.pc_taint)


class _WasmAnalyzer:
    def __init__(self, module: Module, ctx: _Ctx):
        self.module = module
        self.ctx = ctx
        self.labels = {}
        exports = {idx: name for name, idx in module.exports.items()}
        for fidx in range(len(module.functions)):
            self.labels[fidx] = exports.get(fidx, f"func_{fidx}")

    # -- entry ----------------------------------------------------------

    def analyze_export(self, fidx: int) -> None:
        mem = AbsMemory()
        for seg in self.module.data:
            mem.write_bytes(seg.offset, seg.data, _EMPTY)
        func = self.module.functions[fidx]
        args = [_cv(0)] * func.nparams
        self._run_function(fidx, args, mem, _EMPTY, 0)

    # -- one function instance ------------------------------------------

    def _run_function(self, fidx: int, args, mem: AbsMemory,
                      pc_taint: frozenset, depth: int):
        """Fixpoint over one body; returns (result AbsVal | None, memory)
        joined over all RETURN sites."""
        func = self.module.functions[fidx]
        label = self.labels[fidx]
        if depth > _MAX_INLINE_DEPTH:
            self.ctx.note_loop(label)
            out = mem.copy()
            out.write_unknown_addr(
                frozenset().union(*(a.taint for a in args)) if args else _EMPTY
            )
            return (_UNKNOWN if func.nresults else None), out
        nvars = func.nparams + func.nlocals
        locals0 = list(args) + [_cv(0)] * (nvars - len(args))
        entry = _WasmState([], locals0, mem.copy(), pc_taint)
        states: dict[int, _WasmState] = {0: entry}
        visits: dict[int, int] = {}
        work = [0]
        exit_val: AbsVal | None = None
        exit_mem: AbsMemory | None = None
        has_result = bool(func.nresults)
        code = func.code
        size = len(code)
        while work:
            pc = work.pop()
            if pc >= size or not self.ctx.budget_ok():
                continue
            visits[pc] = visits.get(pc, 0) + 1
            if visits[pc] > _MAX_VISITS:
                continue  # widened away: stop exploring this pc
            state = states[pc].copy()
            self.ctx.note_stack(label, len(state.stack))
            result = self._step(fidx, label, pc, code, state, depth)
            if result is None:
                continue
            kind, payload = result
            if kind == "return":
                value, rmem = payload
                if has_result:
                    exit_val = (value if exit_val is None
                                else _join_val(exit_val, value))
                exit_mem = (rmem if exit_mem is None
                            else AbsMemory.join(exit_mem, rmem))
                continue
            for succ, succ_state in payload:
                if succ >= size:
                    continue
                if succ <= pc:
                    self.ctx.note_loop(label)
                known = states.get(succ)
                if known is None:
                    states[succ] = succ_state
                    work.append(succ)
                else:
                    joined = _join_wasm_states(known, succ_state)
                    if joined is not None and not _wasm_states_eq(joined, known):
                        states[succ] = joined
                        work.append(succ)
        if exit_mem is None:
            exit_mem = mem.copy()  # no RETURN reached (abort-only paths)
        if has_result and exit_val is None:
            exit_val = _UNKNOWN
        return exit_val, exit_mem

    # -- single instruction ---------------------------------------------

    def _step(self, fidx, label, pc, code, state, depth):
        """Returns ("return", (val, mem)) | ("next", [(succ, state)...])
        | None (terminal/trap)."""
        opcode, a, b = code[pc]
        stack = state.stack
        mem = state.mem

        def pop() -> AbsVal:
            return stack.pop() if stack else _UNKNOWN

        def push(value: AbsVal) -> None:
            stack.append(value)

        cost = 1
        if opcode in (op.CALL_HOST,):
            cost = _OCALL
        self.ctx.note_cost(label, (fidx << 20) | pc, cost)

        window = lambda: wasm_instruction_window(code, pc)  # noqa: E731

        if opcode == op.RETURN:
            value = pop() if self.module.functions[fidx].nresults else None
            return ("return", (value, mem))
        if opcode == op.UNREACHABLE:
            return None
        if opcode == op.NOP:
            return ("next", [(pc + 1, state)])
        if opcode == op.CONST:
            push(_cv(a & _M64))
            return ("next", [(pc + 1, state)])
        if opcode == op.DROP:
            pop()
            return ("next", [(pc + 1, state)])
        if opcode == op.LOCAL_GET:
            push(state.locals[a] if a < len(state.locals) else _UNKNOWN)
            return ("next", [(pc + 1, state)])
        if opcode == op.LOCAL_SET:
            value = pop()
            if a < len(state.locals):
                state.locals[a] = value
            return ("next", [(pc + 1, state)])
        if opcode == op.LOCAL_TEE:
            if stack and a < len(state.locals):
                state.locals[a] = stack[-1]
            return ("next", [(pc + 1, state)])
        if opcode == op.SELECT:
            cond = pop()
            if_false = pop()
            if_true = pop()
            merged = _join_val(if_true, if_false)
            push(AbsVal(taint=merged.taint | cond.taint,
                        consts=merged.consts, sym=None))
            return ("next", [(pc + 1, state)])
        if opcode == op.JMP:
            return ("next", [(a, state)])
        if opcode in (op.JMP_IF, op.JMP_IFZ):
            cond = pop()
            self._branch_constraint(label, pc, opcode, cond, a, pc + 1)
            if cond.taint:
                state.pc_taint = state.pc_taint | cond.taint
            taken = cond.const()
            if taken is not None:
                truthy = bool(taken)
                if opcode == op.JMP_IFZ:
                    truthy = not truthy
                return ("next", [(a if truthy else pc + 1, state)])
            return ("next", [(a, state), (pc + 1, state.copy())])
        if opcode == op.CMP_BR:
            rhs = pop()
            lhs = pop()
            kind = _CMP_KIND_NAMES.get(b, "truthy")
            self.ctx.constraint(PathConstraint(
                function=label, pc=pc, kind=kind,
                lhs=render_sym(lhs.sym), rhs=render_sym(rhs.sym),
                taken=a, fallthrough=pc + 1,
                lhs_sym=lhs.sym, rhs_sym=rhs.sym,
            ))
            if lhs.taint or rhs.taint:
                state.pc_taint = state.pc_taint | lhs.taint | rhs.taint
            return ("next", [(a, state), (pc + 1, state.copy())])
        if opcode == op.CALL:
            callee = self.module.functions[a]
            nargs = callee.nparams
            args = [pop() for _ in range(nargs)]
            args.reverse()
            value, new_mem = self._run_function(
                a, args, mem, state.pc_taint, depth + 1
            )
            state.mem = new_mem
            if callee.nresults:
                push(value if value is not None else _UNKNOWN)
            return ("next", [(pc + 1, state)])
        if opcode == op.CALL_HOST:
            if a >= len(self.module.hosts):
                return None
            imp = self.module.hosts[a]
            args = [pop() for _ in range(imp.nparams)]
            args.reverse()
            return self._host_call(fidx, label, pc, code, imp.name,
                                   imp.nresults, args, state, window)
        if opcode in _WASM_BIN_OPS:
            name, fn = _WASM_BIN_OPS[opcode]
            rhs = pop()
            lhs = pop()
            push(_binop(name, lhs, rhs, fn, _M64))
            return ("next", [(pc + 1, state)])
        if opcode in (op.DIV_S, op.DIV_U, op.REM_S, op.REM_U, op.SHR_S):
            rhs = pop()
            lhs = pop()
            push(AbsVal(taint=lhs.taint | rhs.taint))
            return ("next", [(pc + 1, state)])
        if opcode in _WASM_CMP_OPS:
            rhs = pop()
            lhs = pop()
            sym = None
            if lhs.sym is not None and rhs.sym is not None:
                sym = ("cmp", _WASM_CMP_OPS[opcode], lhs.sym, rhs.sym)
            push(AbsVal(taint=lhs.taint | rhs.taint, sym=sym))
            return ("next", [(pc + 1, state)])
        if opcode == op.EQZ:
            value = pop()
            sym = None
            if value.sym is not None:
                sym = ("cmp", "eq", value.sym, ("const", 0))
            push(AbsVal(taint=value.taint, sym=sym))
            return ("next", [(pc + 1, state)])
        if opcode in _LOAD_WIDTHS:
            addr = pop()
            self._load(state, addr, a, _LOAD_WIDTHS[opcode], label, push)
            return ("next", [(pc + 1, state)])
        if opcode in _STORE_WIDTHS:
            value = pop()
            addr = pop()
            self._store(state, addr, a, _STORE_WIDTHS[opcode], value, label)
            return ("next", [(pc + 1, state)])
        if opcode == op.MEMCOPY:
            length = pop()
            src = pop()
            dst = pop()
            self._memcopy(state, dst, src, length, label)
            return ("next", [(pc + 1, state)])
        if opcode == op.MEMFILL:
            length = pop()
            byte = pop()
            dst = pop()
            dstc, lenc, bytec = dst.const(), length.const(), byte.const()
            taint = byte.taint | dst.taint | length.taint | state.pc_taint
            if dstc is not None and lenc is not None and lenc >= 0:
                self.ctx.note_mem(label, dstc + lenc)
                if bytec is not None:
                    mem.write_bytes(dstc, bytes([bytec & 0xFF]) * lenc, taint)
                else:
                    mem.write_unknown(dstc, lenc, taint)
            else:
                mem.write_unknown_addr(taint)
            return ("next", [(pc + 1, state)])
        if opcode == op.MEMSIZE:
            push(_cv(self.module.memory_bytes))
            return ("next", [(pc + 1, state)])
        # superinstructions ------------------------------------------------
        if opcode == op.GETGET:
            push(state.locals[a] if a < len(state.locals) else _UNKNOWN)
            push(state.locals[b] if b < len(state.locals) else _UNKNOWN)
            return ("next", [(pc + 1, state)])
        if opcode == op.GETCONST:
            push(state.locals[a] if a < len(state.locals) else _UNKNOWN)
            push(_cv(b & _M64))
            return ("next", [(pc + 1, state)])
        if opcode == op.ADDI:
            value = pop()
            push(_binop("add", value, _cv(a & _M64), lambda x, y: x + y, _M64))
            return ("next", [(pc + 1, state)])
        if opcode == op.INCL:
            if a < len(state.locals):
                state.locals[a] = _binop(
                    "add", state.locals[a], _cv(b & _M64),
                    lambda x, y: x + y, _M64,
                )
            return ("next", [(pc + 1, state)])
        if opcode == op.GETADD:
            value = pop()
            local = state.locals[a] if a < len(state.locals) else _UNKNOWN
            push(_binop("add", value, local, lambda x, y: x + y, _M64))
            return ("next", [(pc + 1, state)])
        if opcode == op.MOVL:
            if a < len(state.locals) and b < len(state.locals):
                state.locals[b] = state.locals[a]
            return ("next", [(pc + 1, state)])
        if opcode == op.LOAD8_LOCAL:
            base = state.locals[a] if a < len(state.locals) else _UNKNOWN
            self._load(state, base, b, 1, label, push)
            return ("next", [(pc + 1, state)])
        # unknown opcode: Pass 2 reports it; stop the path here
        return None

    # -- memory helpers --------------------------------------------------

    def _load(self, state, addr: AbsVal, offset: int, width: int,
              label: str, push) -> None:
        mem = state.mem
        base = addr.const()
        if base is None:
            push(AbsVal(taint=addr.taint | mem.all_taint()))
            self.ctx.note_mem(label, self.module.memory_bytes)
            return
        location = base + offset
        self.ctx.note_mem(label, location + width)
        taint = mem.read_taint(location, width) | addr.taint
        sym = mem.region_sym(location, width)
        raw = mem.read_bytes(location, width)
        consts = None
        if raw is not None:
            value = int.from_bytes(raw, "big")
            consts = frozenset([value])
            if sym is None:
                sym = ("const", value)
        push(AbsVal(taint=taint, consts=consts, sym=sym))

    def _store(self, state, addr: AbsVal, offset: int, width: int,
               value: AbsVal, label: str) -> None:
        mem = state.mem
        taint = value.taint | addr.taint | state.pc_taint
        base = addr.const()
        if base is None:
            mem.write_unknown_addr(taint)
            self.ctx.note_mem(label, self.module.memory_bytes)
            return
        location = base + offset
        self.ctx.note_mem(label, location + width)
        known = value.const()
        if known is not None:
            mem.write_bytes(location, (known & ((1 << (8 * width)) - 1))
                            .to_bytes(width, "big"), taint)
        else:
            mem.write_unknown(location, width, taint)
            if value.sym is not None and value.sym[0] == "input":
                mem.add_region("input", location, value.sym[1], width)

    def _memcopy(self, state, dst: AbsVal, src: AbsVal, length: AbsVal,
                 label: str) -> None:
        mem = state.mem
        dstc, srcc, lenc = dst.const(), src.const(), length.const()
        extra = dst.taint | src.taint | length.taint | state.pc_taint
        if dstc is None or lenc is None or lenc < 0:
            mem.write_unknown_addr(extra | mem.all_taint())
            self.ctx.note_mem(label, self.module.memory_bytes)
            return
        self.ctx.note_mem(label, dstc + lenc)
        if srcc is None:
            mem.write_unknown(dstc, lenc, extra | mem.all_taint())
            return
        taint = mem.read_taint(srcc, lenc) | extra
        raw = mem.read_bytes(srcc, lenc)
        if raw is not None:
            mem.write_bytes(dstc, raw, taint)
        else:
            mem.write_unknown(dstc, lenc, taint)
        sym = mem.region_sym(srcc, lenc)
        if sym is not None and sym[0] == "input":
            mem.add_region("input", dstc, sym[1], lenc)

    # -- host transfer ---------------------------------------------------

    def _host_call(self, fidx, label, pc, code, name, nresults, args,
                   state, window):
        mem = state.mem
        policy = self.ctx.policy

        def region_taint(ptr: AbsVal, length: AbsVal) -> frozenset:
            ptrc, lenc = ptr.const(), length.const()
            base = ptr.taint | length.taint
            if ptrc is None or lenc is None or lenc < 0:
                return base | mem.all_taint()
            self.ctx.note_mem(label, ptrc + lenc)
            return base | mem.read_taint(ptrc, lenc)

        next_state = ("next", [(pc + 1, state)])

        if name == "input_size":
            state.stack.append(AbsVal(sym=("input_size",)))
            return next_state
        if name == "input_read":
            dst, off, length = args[0], args[1], args[2]
            dstc, offc, lenc = dst.const(), off.const(), length.const()
            if dstc is not None and lenc is not None and lenc >= 0:
                self.ctx.note_mem(label, dstc + lenc)
                mem.write_unknown(dstc, lenc, _EMPTY)
                if offc is not None:
                    mem.add_region("input", dstc, offc, lenc)
            else:
                mem.write_unknown_addr(_EMPTY)
            state.stack.append(AbsVal(sym=("input_size",)))
            return next_state
        if name == "storage_get":
            key_ptr, key_len, dst, cap = args
            kp, kl = key_ptr.const(), key_len.const()
            tag = mem.read_prefix(kp, kl) if (kp is not None and kl is not None
                                              and kl >= 0) else b""
            classification = _classify(policy, tag if tag else None)
            dstc, capc = dst.const(), cap.const()
            if classification == KEY_CONFIDENTIAL:
                tag_s = _tag_str(tag)
                self.ctx.sources.add(tag_s)
                taint = frozenset([tag_s])
                if dstc is not None and capc is not None and capc >= 0:
                    self.ctx.note_mem(label, dstc + capc)
                    mem.write_unknown(dstc, capc, taint)
                    mem.add_region("storage", dstc, tag_s, capc)
                else:
                    mem.write_unknown_addr(taint)
                state.stack.append(AbsVal(taint=taint,
                                          sym=("storage_len", tag_s)))
            else:
                if dstc is not None and capc is not None and capc >= 0:
                    self.ctx.note_mem(label, dstc + capc)
                    mem.write_unknown(dstc, capc, _EMPTY)
                else:
                    mem.write_unknown_addr(_EMPTY)
                state.stack.append(_UNKNOWN)
            return next_state
        if name == "storage_set":
            key_ptr, key_len, val_ptr, val_len = args
            kp, kl = key_ptr.const(), key_len.const()
            tag = mem.read_prefix(kp, kl) if (kp is not None and kl is not None
                                              and kl >= 0) else b""
            classification = _classify(policy, tag if tag else None)
            if classification != KEY_CONFIDENTIAL:
                taint = (region_taint(val_ptr, val_len)
                         | key_ptr.taint | key_len.taint
                         | ((mem.read_taint(kp, kl) if kp is not None
                             and kl is not None and kl >= 0
                             else mem.all_taint()))
                         | state.pc_taint)
                if classification == KEY_PUBLIC:
                    message = ("confidential data written under public "
                               f"storage key '{_tag_str(tag)}'")
                else:
                    message = ("confidential data written under a storage "
                               "key the analyzer cannot prove confidential")
                self.ctx.sink(FLOW_STORAGE_SET, message, label, pc, window(),
                              "", taint)
            return next_state
        if name == "log":
            taint = region_taint(args[0], args[1]) | state.pc_taint
            self.ctx.sink(
                FLOW_LOG,
                "confidential data reaches the public event stream",
                label, pc, window(), "", taint,
            )
            return next_state
        if name == "output":
            taint = region_taint(args[0], args[1]) | state.pc_taint
            self.ctx.sink(
                FLOW_OUTPUT,
                "confidential data reaches the return data",
                label, pc, window(), "", taint,
            )
            return next_state
        if name == "abort":
            taint = region_taint(args[0], args[1]) | state.pc_taint
            self.ctx.sink(
                FLOW_REVERT,
                "confidential data reaches the revert payload",
                label, pc, window(), "", taint,
            )
            return None  # abort never returns
        if name == "call_contract":
            taint = set(state.pc_taint)
            for i in (0, 2, 4):
                taint |= region_taint(args[i], args[i + 1])
            taint |= args[6].taint | args[7].taint
            self.ctx.sink(
                FLOW_CALL_CONTRACT,
                "confidential data escapes via call_contract arguments",
                label, pc, window(), "", frozenset(taint),
            )
            dstc, capc = args[6].const(), args[7].const()
            if dstc is not None and capc is not None and capc >= 0:
                mem.write_unknown(dstc, capc, _EMPTY)
            else:
                mem.write_unknown_addr(_EMPTY)
            state.stack.append(_UNKNOWN)
            return next_state
        if name in ("sha256", "keccak256"):
            ptr, length, dst = args
            taint = region_taint(ptr, length)
            dstc = dst.const()
            if dstc is not None:
                self.ctx.note_mem(label, dstc + 32)
                mem.write_unknown(dstc, 32, taint)
            else:
                mem.write_unknown_addr(taint)
            return next_state
        if name == "caller":
            dstc = args[0].const()
            if dstc is not None:
                self.ctx.note_mem(label, dstc + 20)
                mem.write_unknown(dstc, 20, _EMPTY)
            else:
                mem.write_unknown_addr(_EMPTY)
            return next_state
        if name == "declassify":
            ptrc, lenc = args[0].const(), args[1].const()
            if ptrc is not None and lenc is not None and lenc >= 0:
                mem.clear_taint(ptrc, lenc)
            self.ctx.declassify(label, pc)
            return next_state
        # unknown host import: Pass 2 rejects it; havoc and continue
        mem.write_unknown_addr(_EMPTY)
        if nresults:
            state.stack.append(_UNKNOWN)
        return next_state

    def _branch_constraint(self, label, pc, opcode, cond: AbsVal,
                           taken: int, fallthrough: int) -> None:
        sym = cond.sym
        if sym is not None and sym[0] == "cmp":
            kind = sym[1]
            lhs_sym, rhs_sym = sym[2], sym[3]
        else:
            kind = "truthy"
            lhs_sym, rhs_sym = sym, ("const", 0)
        if opcode == op.JMP_IFZ:
            kind = _CMP_INVERT_NAMES.get(kind, kind)
        self.ctx.constraint(PathConstraint(
            function=label, pc=pc, kind=kind,
            lhs=render_sym(lhs_sym), rhs=render_sym(rhs_sym),
            taken=taken, fallthrough=fallthrough,
            lhs_sym=lhs_sym, rhs_sym=rhs_sym,
        ))


# ---------------------------------------------------------------------------
# EVM abstract interpreter
# ---------------------------------------------------------------------------

_EVM_BIN_OPS = {
    evm_op.ADD: ("add", lambda x, y: x + y),
    evm_op.SUB: ("sub", lambda x, y: x - y),
    evm_op.MUL: ("mul", lambda x, y: x * y),
    evm_op.AND: ("and", lambda x, y: x & y),
    evm_op.OR: ("or", lambda x, y: x | y),
    evm_op.XOR: ("xor", lambda x, y: x ^ y),
}

_EVM_CMP_OPS = {
    evm_op.LT: "lt_u", evm_op.GT: "gt_u",
    evm_op.SLT: "lt_s", evm_op.SGT: "gt_s", evm_op.EQ: "eq",
}


@dataclass
class _EvmState:
    stack: list
    mem: AbsMemory
    pc_taint: frozenset

    def copy(self) -> "_EvmState":
        return _EvmState(list(self.stack), self.mem.copy(), self.pc_taint)


def _join_evm_states(a: _EvmState, b: _EvmState) -> _EvmState | None:
    if len(a.stack) != len(b.stack):
        return None
    return _EvmState(
        [_join_val(x, y) for x, y in zip(a.stack, b.stack)],
        AbsMemory.join(a.mem, b.mem),
        a.pc_taint | b.pc_taint,
    )


def _evm_states_eq(a: _EvmState, b: _EvmState) -> bool:
    return (a.stack == b.stack and a.mem == b.mem
            and a.pc_taint == b.pc_taint)


class _EvmAnalyzer:
    def __init__(self, code: bytes, ctx: _Ctx):
        self.code = code
        self.ctx = ctx

    def analyze_entry(self, label: str, entry: int) -> None:
        code = self.code
        ctx = self.ctx
        states: dict[int, _EvmState] = {entry: _EvmState([], AbsMemory(), _EMPTY)}
        visits: dict[int, int] = {}
        work = [entry]
        while work:
            pc = work.pop()
            if pc >= len(code) or not ctx.budget_ok():
                continue
            visits[pc] = visits.get(pc, 0) + 1
            if visits[pc] > _MAX_VISITS:
                continue
            state = states[pc].copy()
            ctx.note_stack(label, len(state.stack))
            successors = self._step(label, pc, state)
            if not successors:
                continue
            for succ, succ_state in successors:
                if succ >= len(code):
                    continue
                if succ <= pc:
                    ctx.note_loop(label)
                known = states.get(succ)
                if known is None:
                    states[succ] = succ_state
                    work.append(succ)
                else:
                    joined = _join_evm_states(known, succ_state)
                    if joined is not None and not _evm_states_eq(joined, known):
                        states[succ] = joined
                        work.append(succ)

    def _step(self, label, pc, state):
        code = self.code
        ctx = self.ctx
        stack = state.stack
        mem = state.mem
        opcode = code[pc]

        def pop() -> AbsVal:
            return stack.pop() if stack else _UNKNOWN

        def push(value: AbsVal) -> None:
            stack.append(value)

        cost = evm_op.GAS_TABLE.get(opcode, 1)
        if opcode == evm_op.HOSTCALL:
            cost = _OCALL
        ctx.note_cost(label, pc, cost)

        window = lambda: evm_instruction_window(code, pc)  # noqa: E731

        if evm_op.PUSH1 <= opcode <= evm_op.PUSH1 + 31:
            width = opcode - evm_op.PUSH1 + 1
            push(_cv(int.from_bytes(code[pc + 1 : pc + 1 + width], "big")))
            return [(pc + 1 + width, state)]
        nxt = pc + 1
        if evm_op.DUP1 <= opcode <= evm_op.DUP1 + 15:
            depth = opcode - evm_op.DUP1 + 1
            push(stack[-depth] if len(stack) >= depth else _UNKNOWN)
            return [(nxt, state)]
        if evm_op.SWAP1 <= opcode <= evm_op.SWAP1 + 15:
            depth = opcode - evm_op.SWAP1 + 1
            if len(stack) > depth:
                stack[-1], stack[-1 - depth] = stack[-1 - depth], stack[-1]
            return [(nxt, state)]
        if opcode == evm_op.POP:
            pop()
            return [(nxt, state)]
        if opcode == evm_op.JUMPDEST:
            return [(nxt, state)]
        if opcode in _EVM_BIN_OPS:
            name, fn = _EVM_BIN_OPS[opcode]
            lhs = pop()
            rhs = pop()
            push(_binop(name, lhs, rhs, fn, _M256))
            return [(nxt, state)]
        if opcode in (evm_op.DIV, evm_op.SDIV, evm_op.MOD, evm_op.SMOD,
                      evm_op.EXP, evm_op.SIGNEXTEND, evm_op.BYTE,
                      evm_op.SHL, evm_op.SHR, evm_op.SAR):
            lhs = pop()
            rhs = pop()
            push(AbsVal(taint=lhs.taint | rhs.taint))
            return [(nxt, state)]
        if opcode == evm_op.NOT:
            value = pop()
            push(AbsVal(taint=value.taint))
            return [(nxt, state)]
        if opcode in _EVM_CMP_OPS:
            lhs = pop()
            rhs = pop()
            sym = None
            if lhs.sym is not None and rhs.sym is not None:
                sym = ("cmp", _EVM_CMP_OPS[opcode], lhs.sym, rhs.sym)
            consts = None
            if opcode == evm_op.EQ and lhs.consts is not None \
                    and rhs.consts is not None \
                    and len(lhs.consts) == 1 and len(rhs.consts) == 1:
                consts = frozenset(
                    [1 if lhs.consts == rhs.consts else 0]
                )
            push(AbsVal(taint=lhs.taint | rhs.taint, consts=consts, sym=sym))
            return [(nxt, state)]
        if opcode == evm_op.ISZERO:
            value = pop()
            sym = None
            if value.sym is not None:
                sym = ("cmp", "eq", value.sym, ("const", 0))
            consts = None
            known = value.const()
            if known is not None:
                consts = frozenset([0 if known else 1])
            push(AbsVal(taint=value.taint, consts=consts, sym=sym))
            return [(nxt, state)]
        if opcode == evm_op.MLOAD:
            addr = pop()
            base = addr.const()
            if base is None:
                push(AbsVal(taint=addr.taint | mem.all_taint()))
                return [(nxt, state)]
            ctx.note_mem(label, base + 32)
            taint = mem.read_taint(base, 32) | addr.taint
            sym = mem.region_sym(base, 32)
            raw = mem.read_bytes(base, 32)
            consts = None
            if raw is not None:
                value = int.from_bytes(raw, "big")
                consts = frozenset([value])
                if sym is None:
                    sym = ("const", value)
            push(AbsVal(taint=taint, consts=consts, sym=sym))
            return [(nxt, state)]
        if opcode in (evm_op.MSTORE, evm_op.MSTORE8):
            addr = pop()
            value = pop()
            width = 32 if opcode == evm_op.MSTORE else 1
            taint = value.taint | addr.taint | state.pc_taint
            base = addr.const()
            if base is None:
                mem.write_unknown_addr(taint)
                return [(nxt, state)]
            ctx.note_mem(label, base + width)
            known = value.const()
            if known is not None:
                mem.write_bytes(
                    base,
                    (known & ((1 << (8 * width)) - 1)).to_bytes(width, "big"),
                    taint,
                )
            else:
                mem.write_unknown(base, width, taint)
                if value.sym is not None and value.sym[0] == "input":
                    mem.add_region("input", base, value.sym[1], width)
            return [(nxt, state)]
        if opcode == evm_op.CALLDATALOAD:
            off = pop()
            offc = off.const()
            sym = ("input", offc, 32) if offc is not None else None
            push(AbsVal(taint=off.taint, sym=sym))
            return [(nxt, state)]
        if opcode == evm_op.CALLDATASIZE:
            push(AbsVal(sym=("input_size",)))
            return [(nxt, state)]
        if opcode == evm_op.CALLDATACOPY:
            dst = pop()
            src = pop()
            length = pop()
            dstc, srcc, lenc = dst.const(), src.const(), length.const()
            if dstc is not None and lenc is not None and lenc >= 0:
                ctx.note_mem(label, dstc + lenc)
                mem.write_unknown(dstc, lenc, _EMPTY)
                if srcc is not None:
                    mem.add_region("input", dstc, srcc, lenc)
            else:
                mem.write_unknown_addr(_EMPTY)
            return [(nxt, state)]
        if opcode == evm_op.CODECOPY:
            dst = pop()
            src = pop()
            length = pop()
            dstc, srcc, lenc = dst.const(), src.const(), length.const()
            if dstc is not None and lenc is not None and lenc >= 0:
                ctx.note_mem(label, dstc + lenc)
                if srcc is not None:
                    chunk = code[srcc : srcc + lenc]
                    chunk = chunk + bytes(lenc - len(chunk))
                    mem.write_bytes(dstc, chunk, _EMPTY)
                else:
                    mem.write_unknown(dstc, lenc, _EMPTY)
            else:
                mem.write_unknown_addr(_EMPTY)
            return [(nxt, state)]
        if opcode == evm_op.KECCAK256:
            off = pop()
            length = pop()
            offc, lenc = off.const(), length.const()
            if offc is not None and lenc is not None and lenc >= 0:
                taint = mem.read_taint(offc, lenc)
            else:
                taint = mem.all_taint()
            push(AbsVal(taint=taint | off.taint | length.taint))
            return [(nxt, state)]
        if opcode == evm_op.CALLER:
            push(AbsVal(sym=("caller",)))
            return [(nxt, state)]
        if opcode == evm_op.SLOAD:
            key = pop()
            # Slotted keys are hashes: never provably confidential, so
            # SLOAD is not a source (documented imprecision).
            push(AbsVal(taint=key.taint))
            return [(nxt, state)]
        if opcode == evm_op.SSTORE:
            key = pop()
            value = pop()
            taint = value.taint | key.taint | state.pc_taint
            self.ctx.sink(
                FLOW_STORAGE_SET,
                "confidential data written under a storage key the "
                "analyzer cannot prove confidential",
                label, pc, window(), "", taint,
            )
            return [(nxt, state)]
        if opcode == evm_op.LOG0:
            off = pop()
            length = pop()
            taint = (self._region_taint(label, mem, off, length)
                     | state.pc_taint)
            self.ctx.sink(
                FLOW_LOG,
                "confidential data reaches the public event stream",
                label, pc, window(), "", taint,
            )
            return [(nxt, state)]
        if opcode == evm_op.RETURN:
            off = pop()
            length = pop()
            taint = (self._region_taint(label, mem, off, length)
                     | state.pc_taint)
            self.ctx.sink(
                FLOW_OUTPUT,
                "confidential data reaches the return data",
                label, pc, window(), "", taint,
            )
            return []
        if opcode == evm_op.REVERT:
            off = pop()
            length = pop()
            taint = (self._region_taint(label, mem, off, length)
                     | state.pc_taint)
            self.ctx.sink(
                FLOW_REVERT,
                "confidential data reaches the revert payload",
                label, pc, window(), "", taint,
            )
            return []
        if opcode == evm_op.STOP:
            return []
        if opcode == evm_op.INVALID:
            return []
        if opcode == evm_op.JUMP:
            dest = pop()
            if dest.consts is None:
                return []  # unresolvable jump: path abandoned (documented)
            if dest.taint:
                state.pc_taint = state.pc_taint | dest.taint
            return [(d, state.copy()) for d in sorted(dest.consts)]
        if opcode == evm_op.JUMPI:
            dest = pop()
            cond = pop()
            self._branch_constraint(label, pc, cond, dest, nxt)
            if cond.taint:
                state.pc_taint = state.pc_taint | cond.taint
            known = cond.const()
            successors = []
            if known is None or known:
                if dest.consts is not None:
                    successors.extend(
                        (d, state.copy()) for d in sorted(dest.consts)
                    )
            if known is None or not known:
                successors.append((nxt, state.copy()))
            return successors
        if opcode == evm_op.HOSTCALL:
            index = pop()
            idx = index.const()
            if idx is None or not 0 <= idx < len(host_mod.HOST_TABLE):
                mem.write_unknown_addr(_EMPTY)
                return [(nxt, state)]
            imp = host_mod.HOST_TABLE[idx]
            args = [pop() for _ in range(imp.nparams)]
            args.reverse()
            return self._hostcall(label, pc, imp.name, imp.nresults,
                                  args, state, window, nxt)
        if opcode in (evm_op.PC, evm_op.MSIZE, evm_op.GAS):
            push(_UNKNOWN)
            return [(nxt, state)]
        # unimplemented/invalid opcode: Pass 2 reports; stop this path
        return []

    def _region_taint(self, label, mem: AbsMemory, ptr: AbsVal,
                      length: AbsVal) -> frozenset:
        ptrc, lenc = ptr.const(), length.const()
        base = ptr.taint | length.taint
        if ptrc is None or lenc is None or lenc < 0:
            return base | mem.all_taint()
        self.ctx.note_mem(label, ptrc + lenc)
        return base | mem.read_taint(ptrc, lenc)

    def _hostcall(self, label, pc, name, nresults, args, state, window, nxt):
        """Same canonical host table as the wasm machine."""
        mem = state.mem
        ctx = self.ctx
        policy = ctx.policy
        push = state.stack.append

        def key_tag(key_ptr: AbsVal, key_len: AbsVal) -> bytes:
            kp, kl = key_ptr.const(), key_len.const()
            if kp is None or kl is None or kl < 0:
                return b""
            return mem.read_prefix(kp, kl)

        if name == "input_size":
            push(AbsVal(sym=("input_size",)))
            return [(nxt, state)]
        if name == "input_read":
            dst, off, length = args
            dstc, offc, lenc = dst.const(), off.const(), length.const()
            if dstc is not None and lenc is not None and lenc >= 0:
                ctx.note_mem(label, dstc + lenc)
                mem.write_unknown(dstc, lenc, _EMPTY)
                if offc is not None:
                    mem.add_region("input", dstc, offc, lenc)
            else:
                mem.write_unknown_addr(_EMPTY)
            push(AbsVal(sym=("input_size",)))
            return [(nxt, state)]
        if name == "storage_get":
            key_ptr, key_len, dst, cap = args
            tag = key_tag(key_ptr, key_len)
            classification = _classify(policy, tag if tag else None)
            dstc, capc = dst.const(), cap.const()
            if classification == KEY_CONFIDENTIAL:
                tag_s = _tag_str(tag)
                ctx.sources.add(tag_s)
                taint = frozenset([tag_s])
                if dstc is not None and capc is not None and capc >= 0:
                    ctx.note_mem(label, dstc + capc)
                    mem.write_unknown(dstc, capc, taint)
                    mem.add_region("storage", dstc, tag_s, capc)
                else:
                    mem.write_unknown_addr(taint)
                push(AbsVal(taint=taint, sym=("storage_len", tag_s)))
            else:
                if dstc is not None and capc is not None and capc >= 0:
                    ctx.note_mem(label, dstc + capc)
                    mem.write_unknown(dstc, capc, _EMPTY)
                else:
                    mem.write_unknown_addr(_EMPTY)
                push(_UNKNOWN)
            return [(nxt, state)]
        if name == "storage_set":
            key_ptr, key_len, val_ptr, val_len = args
            tag = key_tag(key_ptr, key_len)
            classification = _classify(policy, tag if tag else None)
            if classification != KEY_CONFIDENTIAL:
                taint = (self._region_taint(label, mem, val_ptr, val_len)
                         | key_ptr.taint | key_len.taint | state.pc_taint)
                if classification == KEY_PUBLIC:
                    message = ("confidential data written under public "
                               f"storage key '{_tag_str(tag)}'")
                else:
                    message = ("confidential data written under a storage "
                               "key the analyzer cannot prove confidential")
                ctx.sink(FLOW_STORAGE_SET, message, label, pc, window(),
                         "", taint)
            return [(nxt, state)]
        if name == "log":
            taint = (self._region_taint(label, mem, args[0], args[1])
                     | state.pc_taint)
            ctx.sink(
                FLOW_LOG,
                "confidential data reaches the public event stream",
                label, pc, window(), "", taint,
            )
            return [(nxt, state)]
        if name == "output":
            taint = (self._region_taint(label, mem, args[0], args[1])
                     | state.pc_taint)
            ctx.sink(
                FLOW_OUTPUT,
                "confidential data reaches the return data",
                label, pc, window(), "", taint,
            )
            return [(nxt, state)]
        if name == "abort":
            taint = (self._region_taint(label, mem, args[0], args[1])
                     | state.pc_taint)
            ctx.sink(
                FLOW_REVERT,
                "confidential data reaches the revert payload",
                label, pc, window(), "", taint,
            )
            return []
        if name == "call_contract":
            taint = set(state.pc_taint)
            for i in (0, 2, 4):
                taint |= self._region_taint(label, mem, args[i], args[i + 1])
            taint |= args[6].taint | args[7].taint
            ctx.sink(
                FLOW_CALL_CONTRACT,
                "confidential data escapes via call_contract arguments",
                label, pc, window(), "", frozenset(taint),
            )
            dstc, capc = args[6].const(), args[7].const()
            if dstc is not None and capc is not None and capc >= 0:
                mem.write_unknown(dstc, capc, _EMPTY)
            else:
                mem.write_unknown_addr(_EMPTY)
            push(_UNKNOWN)
            return [(nxt, state)]
        if name in ("sha256", "keccak256"):
            ptr, length, dst = args
            taint = self._region_taint(label, mem, ptr, length)
            dstc = dst.const()
            if dstc is not None:
                ctx.note_mem(label, dstc + 32)
                mem.write_unknown(dstc, 32, taint)
            else:
                mem.write_unknown_addr(taint)
            return [(nxt, state)]
        if name == "caller":
            dstc = args[0].const()
            if dstc is not None:
                ctx.note_mem(label, dstc + 20)
                mem.write_unknown(dstc, 20, _EMPTY)
            else:
                mem.write_unknown_addr(_EMPTY)
            return [(nxt, state)]
        if name == "declassify":
            ptrc, lenc = args[0].const(), args[1].const()
            if ptrc is not None and lenc is not None and lenc >= 0:
                mem.clear_taint(ptrc, lenc)
            ctx.declassify(label, pc)
            return [(nxt, state)]
        if nresults:
            push(_UNKNOWN)
        return [(nxt, state)]

    def _branch_constraint(self, label, pc, cond: AbsVal, dest: AbsVal,
                           fallthrough: int) -> None:
        sym = cond.sym
        if sym is not None and sym[0] == "cmp":
            kind = sym[1]
            lhs_sym, rhs_sym = sym[2], sym[3]
        else:
            kind = "truthy"
            lhs_sym, rhs_sym = sym, ("const", 0)
        taken = dest.const()
        self.ctx.constraint(PathConstraint(
            function=label, pc=pc, kind=kind,
            lhs=render_sym(lhs_sym), rhs=render_sym(rhs_sym),
            taken=taken if taken is not None else -1,
            fallthrough=fallthrough,
            lhs_sym=lhs_sym, rhs_sym=rhs_sym,
        ))


# ---------------------------------------------------------------------------
# Front doors
# ---------------------------------------------------------------------------

@dataclass
class BytecodeFlowResult:
    """Report + path constraints from one bytecode-flow analysis."""

    report: AnalysisReport
    constraints: PathConstraints


def build_bytecode_policy(schema=None, extra_confidential=()) -> Policy:
    """Policy for artifacts deployed without source: the CCLe schema's
    confidential key classes (``ccle:``) plus explicit extra prefixes.
    Source directives are Pass 1 vocabulary — the compiler erases the
    ``declassify`` annotations they pair with, so re-checking them here
    would re-flag audited flows."""
    prefixes: list[bytes] = []
    for extra in extra_confidential:
        encoded = (extra.encode("latin-1") if isinstance(extra, str)
                   else bytes(extra))
        if encoded not in prefixes:
            prefixes.append(encoded)
    if schema is not None and schema.confidential_paths():
        if CCLE_PREFIX not in prefixes:
            prefixes.append(CCLE_PREFIX)
    return Policy(tuple(prefixes), frozenset())


def _finish(ctx: _Ctx, contract_name: str,
            functions_analyzed: int) -> BytecodeFlowResult:
    report = AnalysisReport(contract=contract_name)
    report.functions_analyzed = functions_analyzed
    report.findings = sorted(
        ctx.findings.values(),
        key=lambda f: (f.function, f.pc, f.kind, f.message),
    )
    report.declassifications = [
        ctx.declass[k] for k in sorted(ctx.declass)
    ]
    report.sources_seen = sorted(ctx.sources)
    report.resources = ctx.resources()
    constraints = PathConstraints(sorted(
        ctx.constraints.values(),
        key=lambda c: (c.function, c.pc, c.kind, c.lhs, c.rhs),
    ))
    return BytecodeFlowResult(report=report, constraints=constraints)


def analyze_wasm_module(module: Module, policy: Policy,
                        contract_name: str = "",
                        public_outputs: bool = True) -> BytecodeFlowResult:
    """Analyze a decoded CONFIDE-VM module (fused or unfused)."""
    ctx = _Ctx(policy, public_outputs)
    analyzer = _WasmAnalyzer(module, ctx)
    for name in sorted(module.exports):
        fidx = module.exports[name]
        if 0 <= fidx < len(module.functions):
            analyzer.analyze_export(fidx)
    return _finish(ctx, contract_name, len(module.functions))


def analyze_evm_bytecode(code: bytes, entries: dict[str, int], policy: Policy,
                         contract_name: str = "",
                         public_outputs: bool = True) -> BytecodeFlowResult:
    """Analyze EVM bytecode from its method entry offsets."""
    ctx = _Ctx(policy, public_outputs)
    analyzer = _EvmAnalyzer(code, ctx)
    for name in sorted(entries):
        entry = entries[name]
        if 0 <= entry < len(code):
            analyzer.analyze_entry(name, entry)
    return _finish(ctx, contract_name, len(entries))


def analyze_artifact(
    artifact,
    schema=None,
    contract_name: str = "",
    extra_confidential=(),
    policy: Policy | None = None,
    public_outputs: bool = True,
) -> BytecodeFlowResult:
    """Run the bytecode confidentiality-flow pass over one artifact.

    Wasm modules are analyzed in their fused (OPT4) form — the shape
    that actually executes, superinstructions included.  Returns a
    result whose report never raises; artifacts that do not decode
    yield an empty report (Pass 2 owns that rejection).

    ``public_outputs`` selects the sink model for return data and revert
    payloads: True where receipts travel in plaintext (Public-Engine,
    strict CLI default), False where they are sealed under ``k_tx``
    (Confidential-Engine admission — only the transaction owner can
    read them, so ``output``/``abort`` are not public sinks there).
    """
    if policy is None:
        policy = build_bytecode_policy(schema, extra_confidential)
    name = contract_name or f"<{artifact.target}>"
    if artifact.target == "wasm":
        try:
            module = fuse_module(decode_module(artifact.code))
        except (VMError, ValueError, IndexError, KeyError,
                UnicodeDecodeError):
            return BytecodeFlowResult(AnalysisReport(contract=name),
                                      PathConstraints())
        return analyze_wasm_module(module, policy, name, public_outputs)
    if artifact.target == "evm":
        return analyze_evm_bytecode(artifact.code, artifact.entries,
                                    policy, name, public_outputs)
    return BytecodeFlowResult(AnalysisReport(contract=name),
                              PathConstraints())


def flow_verify_artifact(
    artifact,
    schema=None,
    contract_name: str = "",
    extra_confidential=(),
    public_outputs: bool = True,
) -> BytecodeFlowResult:
    """Like :func:`analyze_artifact` but raises :class:`AnalysisError`
    when the flow pass finds a confidential-to-public leak."""
    from repro.errors import AnalysisError

    result = analyze_artifact(artifact, schema=schema,
                              contract_name=contract_name,
                              extra_confidential=extra_confidential,
                              public_outputs=public_outputs)
    report = result.report
    if not report.clean:
        first = report.findings[0]
        extra = len(report.findings) - 1
        suffix = f" (+{extra} more)" if extra else ""
        raise AnalysisError(
            f"bytecode confidentiality leak at {first.location()}: "
            f"{first.message}{suffix}",
            tuple(report.findings),
        )
    return result
