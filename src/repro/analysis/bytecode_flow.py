"""Pass 3 — bytecode-level confidentiality flow analysis.

Pass 1 (``repro.analysis.taint``) needs CWScript *source*; a byzantine
peer gossiping a sourceless artifact used to get only the structural
checks of Pass 2.  This pass closes that hole: an abstract interpreter
over both deployable artifact formats tracks a confidentiality lattice
through the operand stack, locals, linear memory and storage/host-call
effects.

It is one abstract machine (:class:`_Machine`: state, join, worklist
fixpoint, memory transfer functions, the host-call model over
``vm.host.HOST_TABLE`` and the branch recorder) with two front ends
that only decode their ISA and give each opcode its semantics:
CONFIDE-VM modules, analyzed in their *fused* OPT4 form
(superinstructions included, because that is what executes), and EVM
bytecode.

sources
    ``storage_get`` under a key whose statically-resolved byte prefix
    the policy classifies confidential.  Without source there are no
    ``//@confidential-keys`` directives, so the bytecode policy is
    seeded from the CCLe schema's confidential key classes (the
    ``ccle:`` prefix) plus explicit extras
    (``repro analyze --confidential-prefix``).

sinks
    ``storage_set`` under a key not provably confidential (the value
    bytes and the key bytes, which the host stores in plaintext),
    ``log`` / ``LOG0`` (the public event stream), ``output`` /
    ``RETURN`` (return data), ``abort`` / ``REVERT`` (revert payloads),
    and ``call_contract`` arguments.  Unlike the source pass, return data
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

import functools
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
        if a.known == b.known:
            out.known = dict(a.known)
        else:
            # an absent byte reads as zero until memory is havocked
            a_absent = None if a.havoc else 0
            b_absent = None if b.havoc else 0
            for addr in a.known.keys() | b.known.keys():
                va = a.known.get(addr, a_absent)
                if va is not None and va == b.known.get(addr, b_absent):
                    out.known[addr] = va
        if a.taint == b.taint:
            out.taint = dict(a.taint)
        else:
            for addr in a.taint.keys() | b.taint.keys():
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
             window, taint: frozenset) -> None:
        """Record a finding; ``window`` renders the disassembly context
        and is called only when the finding is new."""
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
            detail=tags, pc=pc, window=window(),
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


# ---------------------------------------------------------------------------
# The abstract machine both front ends share
# ---------------------------------------------------------------------------

@dataclass
class _State:
    """Operand stack, locals (empty on EVM), memory and branch taint."""

    stack: list
    locals: list
    mem: AbsMemory
    pc_taint: frozenset

    def copy(self) -> "_State":
        return _State(list(self.stack), list(self.locals),
                      self.mem.copy(), self.pc_taint)


def _join_states(a: _State, b: _State) -> _State | None:
    if len(a.stack) != len(b.stack):
        return None  # structurally invalid; Pass 2 reports it
    return _State(
        [_join_val(x, y) for x, y in zip(a.stack, b.stack)],
        [_join_val(x, y) for x, y in zip(a.locals, b.locals)],
        AbsMemory.join(a.mem, b.mem),
        a.pc_taint | b.pc_taint,
    )


def _states_eq(a: _State, b: _State) -> bool:
    return (a.stack == b.stack and a.locals == b.locals
            and a.mem == b.mem and a.pc_taint == b.pc_taint)


def _bytes_taint(mem: AbsMemory, ptr: AbsVal, length: AbsVal) -> frozenset:
    """Taint of ``length`` bytes at ``ptr``, the operands' own included;
    all of memory when the range is not static."""
    ptrc, lenc = ptr.const(), length.const()
    if ptrc is None or lenc is None or lenc < 0:
        return ptr.taint | length.taint | mem.all_taint()
    return ptr.taint | length.taint | mem.read_taint(ptrc, lenc)


_UNPROVEN_KEY = ("confidential data written under a storage key the "
                 "analyzer cannot prove confidential")

#: host calls whose only effect is publishing a (ptr, len) region
_REGION_SINKS = {
    "log": (FLOW_LOG, "confidential data reaches the public event stream"),
    "output": (FLOW_OUTPUT, "confidential data reaches the return data"),
    "abort": (FLOW_REVERT, "confidential data reaches the revert payload"),
}


class _Machine:
    """The abstract machine: one worklist fixpoint, the memory transfer
    functions, the canonical host-call model and the branch recorder.
    Front ends decode their ISA and give each opcode its semantics in
    ``_step(pc, state)``, which returns the ``[(successor pc, state)]``
    list (empty where the path ends)."""

    #: high-water charged for an access through an unknown address
    memory_bytes = 0

    def __init__(self, ctx: _Ctx):
        self.ctx = ctx

    def _fixpoint(self, label: str, entry: int, state: _State, size: int,
                  step) -> None:
        ctx = self.ctx
        states: dict[int, _State] = {entry: state}
        visits: dict[int, int] = {}
        work = [entry]
        while work:
            pc = work.pop()
            if pc >= size or not ctx.budget_ok():
                continue
            visits[pc] = visits.get(pc, 0) + 1
            if visits[pc] > _MAX_VISITS:
                continue  # widened away: stop exploring this pc
            state = states[pc].copy()
            ctx.note_stack(label, len(state.stack))
            for succ, succ_state in step(pc, state):
                if succ >= size:
                    continue
                if succ <= pc:
                    ctx.note_loop(label)
                known = states.get(succ)
                if known is None:
                    states[succ] = succ_state
                    work.append(succ)
                else:
                    joined = _join_states(known, succ_state)
                    if joined is not None and not _states_eq(joined, known):
                        states[succ] = joined
                        work.append(succ)

    # -- memory ----------------------------------------------------------

    def _load(self, label: str, mem: AbsMemory, addr: AbsVal, offset: int,
              width: int) -> AbsVal:
        base = addr.const()
        if base is None:
            self.ctx.note_mem(label, self.memory_bytes)
            return AbsVal(taint=addr.taint | mem.all_taint())
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
        return AbsVal(taint=taint, consts=consts, sym=sym)

    def _store(self, label: str, state: _State, addr: AbsVal, offset: int,
               width: int, value: AbsVal) -> None:
        mem = state.mem
        taint = value.taint | addr.taint | state.pc_taint
        base = addr.const()
        if base is None:
            mem.write_unknown_addr(taint)
            self.ctx.note_mem(label, self.memory_bytes)
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

    def _host_write(self, label: str, mem: AbsMemory, dst: int | None,
                    length: int | None, taint: frozenset) -> bool:
        """The host fills ``length`` unknown bytes at ``dst``; False (and
        memory havocked) when the range is not static."""
        if dst is not None and length is not None and length >= 0:
            self.ctx.note_mem(label, dst + length)
            mem.write_unknown(dst, length, taint)
            return True
        mem.write_unknown_addr(taint)
        return False

    def _copy_input(self, label: str, mem: AbsMemory, dst: AbsVal,
                    off: AbsVal, length: AbsVal) -> None:
        dstc, offc, lenc = dst.const(), off.const(), length.const()
        if self._host_write(label, mem, dstc, lenc, _EMPTY) and offc is not None:
            mem.add_region("input", dstc, offc, lenc)

    def _region_taint(self, label: str, mem: AbsMemory, ptr: AbsVal,
                      length: AbsVal) -> frozenset:
        """:func:`_bytes_taint` of a region the host reads, charged to
        the memory high-water."""
        ptrc, lenc = ptr.const(), length.const()
        if ptrc is not None and lenc is not None and lenc >= 0:
            self.ctx.note_mem(label, ptrc + lenc)
        return _bytes_taint(mem, ptr, length)

    # -- host transfer ---------------------------------------------------

    def _region_sink(self, name: str, label: str, pc: int, state: _State,
                     ptr: AbsVal, length: AbsVal, window) -> None:
        kind, message = _REGION_SINKS[name]
        taint = self._region_taint(label, state.mem, ptr, length)
        self.ctx.sink(kind, message, label, pc, window,
                      taint | state.pc_taint)

    def _host_call(self, label: str, pc: int, name: str, nresults: int,
                   args: list, state: _State, window) -> bool:
        """One call into the canonical host table (``vm.host``); False
        when the call never returns."""
        ctx = self.ctx
        mem = state.mem
        push = state.stack.append
        if name == "input_size":
            push(AbsVal(sym=("input_size",)))
            return True
        if name == "input_read":
            self._copy_input(label, mem, *args)
            push(AbsVal(sym=("input_size",)))
            return True
        if name in ("storage_get", "storage_set"):
            kp, kl = args[0].const(), args[1].const()
            tag = (mem.read_prefix(kp, kl)
                   if kp is not None and kl is not None and kl >= 0 else b"")
            classification = ctx.policy.classify_key(tag or None)
        if name == "storage_get":
            dstc, capc = args[2].const(), args[3].const()
            if classification == KEY_CONFIDENTIAL:
                tag_s = tag.decode("latin-1")
                ctx.sources.add(tag_s)
                taint = frozenset([tag_s])
                if self._host_write(label, mem, dstc, capc, taint):
                    mem.add_region("storage", dstc, tag_s, capc)
                push(AbsVal(taint=taint, sym=("storage_len", tag_s)))
            else:
                self._host_write(label, mem, dstc, capc, _EMPTY)
                push(_UNKNOWN)
            return True
        if name == "storage_set":
            if classification != KEY_CONFIDENTIAL:
                # the key bytes themselves are stored in plaintext
                taint = (self._region_taint(label, mem, args[2], args[3])
                         | _bytes_taint(mem, args[0], args[1])
                         | state.pc_taint)
                message = (_UNPROVEN_KEY if classification != KEY_PUBLIC
                           else "confidential data written under public "
                                f"storage key '{tag.decode('latin-1')}'")
                ctx.sink(FLOW_STORAGE_SET, message, label, pc, window, taint)
            return True
        if name in _REGION_SINKS:
            self._region_sink(name, label, pc, state, args[0], args[1],
                              window)
            return name != "abort"
        if name == "call_contract":
            taint = set(state.pc_taint)
            for i in (0, 2, 4):
                taint |= self._region_taint(label, mem, args[i], args[i + 1])
            taint |= args[6].taint | args[7].taint
            ctx.sink(
                FLOW_CALL_CONTRACT,
                "confidential data escapes via call_contract arguments",
                label, pc, window, frozenset(taint),
            )
            dstc, capc = args[6].const(), args[7].const()
            if dstc is not None and capc is not None and capc >= 0:
                mem.write_unknown(dstc, capc, _EMPTY)
            else:
                mem.write_unknown_addr(_EMPTY)
            push(_UNKNOWN)
            return True
        if name in ("sha256", "keccak256"):
            taint = self._region_taint(label, mem, args[0], args[1])
            self._host_write(label, mem, args[2].const(), 32, taint)
            return True
        if name == "caller":
            self._host_write(label, mem, args[0].const(), 20, _EMPTY)
            return True
        if name == "declassify":
            ptrc, lenc = args[0].const(), args[1].const()
            if ptrc is not None and lenc is not None and lenc >= 0:
                mem.clear_taint(ptrc, lenc)
            ctx.declassify(label, pc)
            return True
        # unknown host import: Pass 2 rejects it; havoc and continue
        mem.write_unknown_addr(_EMPTY)
        if nresults:
            push(_UNKNOWN)
        return True

    # -- branches --------------------------------------------------------

    def _branch_constraint(self, label: str, pc: int, cond: AbsVal,
                           taken: int, fallthrough: int,
                           invert: bool = False) -> None:
        """Record the comparison guarding the taken edge; ``invert``
        for branches taken when ``cond`` is false."""
        sym = cond.sym
        if sym is not None and sym[0] == "cmp":
            kind, lhs_sym, rhs_sym = sym[1], sym[2], sym[3]
        else:
            kind, lhs_sym, rhs_sym = "truthy", sym, ("const", 0)
        if invert:
            kind = _CMP_INVERT_NAMES.get(kind, kind)
        self.ctx.constraint(PathConstraint(
            function=label, pc=pc, kind=kind,
            lhs=render_sym(lhs_sym), rhs=render_sym(rhs_sym),
            taken=taken, fallthrough=fallthrough,
            lhs_sym=lhs_sym, rhs_sym=rhs_sym,
        ))


# ---------------------------------------------------------------------------
# CONFIDE-VM (wasm) front end
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


def _add(x, y):
    return x + y


class _WasmAnalyzer(_Machine):
    def __init__(self, module: Module, ctx: _Ctx):
        super().__init__(ctx)
        self.module = module
        self.memory_bytes = module.memory_bytes
        exports = {idx: name for name, idx in module.exports.items()}
        self.labels = {fidx: exports.get(fidx, f"func_{fidx}")
                       for fidx in range(len(module.functions))}

    def analyze_export(self, fidx: int) -> None:
        mem = AbsMemory()
        for seg in self.module.data:
            mem.write_bytes(seg.offset, seg.data, _EMPTY)
        args = [_cv(0)] * self.module.functions[fidx].nparams
        self._run_function(fidx, args, mem, _EMPTY, 0)

    def _run_function(self, fidx: int, args, mem: AbsMemory,
                      pc_taint: frozenset, depth: int):
        """Fixpoint over one body; returns (result AbsVal | None, memory)
        joined over all RETURN sites."""
        func = self.module.functions[fidx]
        label = self.labels[fidx]
        has_result = bool(func.nresults)
        if depth > _MAX_INLINE_DEPTH:
            self.ctx.note_loop(label)
            out = mem.copy()
            out.write_unknown_addr(
                frozenset().union(*(a.taint for a in args)) if args else _EMPTY
            )
            return (_UNKNOWN if has_result else None), out
        locals0 = list(args) + [_cv(0)] * (func.nparams + func.nlocals
                                          - len(args))
        exits: list[tuple] = []  # (result, memory) per RETURN visit
        code = func.code
        self._fixpoint(
            label, 0, _State([], locals0, mem.copy(), pc_taint), len(code),
            functools.partial(self._step, fidx, label, code, depth, exits),
        )
        exit_val: AbsVal | None = None
        exit_mem: AbsMemory | None = None
        for value, rmem in exits:
            if has_result:
                exit_val = (value if exit_val is None
                            else _join_val(exit_val, value))
            exit_mem = (rmem if exit_mem is None
                        else AbsMemory.join(exit_mem, rmem))
        if exit_mem is None:
            exit_mem = mem.copy()  # no RETURN reached (abort-only paths)
        if has_result and exit_val is None:
            exit_val = _UNKNOWN
        return exit_val, exit_mem

    def _step(self, fidx, label, code, depth, exits, pc, state):
        opcode, a, b = code[pc]
        stack = state.stack
        locals_ = state.locals
        mem = state.mem
        push = stack.append

        def pop() -> AbsVal:
            return stack.pop() if stack else _UNKNOWN

        def local(index: int) -> AbsVal:
            return locals_[index] if index < len(locals_) else _UNKNOWN

        self.ctx.note_cost(label, (fidx << 20) | pc,
                           _OCALL if opcode == op.CALL_HOST else 1)

        if opcode == op.RETURN:
            exits.append(
                (pop() if self.module.functions[fidx].nresults else None, mem))
            return []
        if opcode == op.JMP:
            return [(a, state)]
        if opcode in (op.JMP_IF, op.JMP_IFZ):
            cond = pop()
            self._branch_constraint(label, pc, cond, a, pc + 1,
                                    invert=opcode == op.JMP_IFZ)
            if cond.taint:
                state.pc_taint = state.pc_taint | cond.taint
            taken = cond.const()
            if taken is not None:
                truthy = bool(taken) != (opcode == op.JMP_IFZ)
                return [(a if truthy else pc + 1, state)]
            return [(a, state), (pc + 1, state.copy())]
        if opcode == op.CMP_BR:
            rhs = pop()
            lhs = pop()
            kind = _CMP_KIND_NAMES.get(b, "truthy")
            self._branch_constraint(
                label, pc, AbsVal(sym=("cmp", kind, lhs.sym, rhs.sym)),
                a, pc + 1)
            if lhs.taint or rhs.taint:
                state.pc_taint = state.pc_taint | lhs.taint | rhs.taint
            return [(a, state), (pc + 1, state.copy())]
        if opcode == op.CALL_HOST:
            if a >= len(self.module.hosts):
                return []
            imp = self.module.hosts[a]
            args = [pop() for _ in range(imp.nparams)]
            args.reverse()
            window = lambda: wasm_instruction_window(code, pc)  # noqa: E731
            if not self._host_call(label, pc, imp.name, imp.nresults, args,
                                   state, window):
                return []
        elif opcode == op.NOP:
            pass
        elif opcode == op.CONST:
            push(_cv(a & _M64))
        elif opcode == op.DROP:
            pop()
        elif opcode == op.LOCAL_GET:
            push(local(a))
        elif opcode == op.LOCAL_SET:
            value = pop()
            if a < len(locals_):
                locals_[a] = value
        elif opcode == op.LOCAL_TEE:
            if stack and a < len(locals_):
                locals_[a] = stack[-1]
        elif opcode == op.SELECT:
            cond = pop()
            if_false = pop()
            if_true = pop()
            merged = _join_val(if_true, if_false)
            push(AbsVal(taint=merged.taint | cond.taint,
                        consts=merged.consts, sym=None))
        elif opcode == op.CALL:
            callee = self.module.functions[a]
            args = [pop() for _ in range(callee.nparams)]
            args.reverse()
            value, state.mem = self._run_function(
                a, args, mem, state.pc_taint, depth + 1
            )
            if callee.nresults:
                push(value if value is not None else _UNKNOWN)
        elif opcode in _WASM_BIN_OPS:
            name, fn = _WASM_BIN_OPS[opcode]
            rhs = pop()
            lhs = pop()
            push(_binop(name, lhs, rhs, fn, _M64))
        elif opcode in (op.DIV_S, op.DIV_U, op.REM_S, op.REM_U, op.SHR_S):
            rhs = pop()
            lhs = pop()
            push(AbsVal(taint=lhs.taint | rhs.taint))
        elif opcode in _WASM_CMP_OPS:
            rhs = pop()
            lhs = pop()
            sym = None
            if lhs.sym is not None and rhs.sym is not None:
                sym = ("cmp", _WASM_CMP_OPS[opcode], lhs.sym, rhs.sym)
            push(AbsVal(taint=lhs.taint | rhs.taint, sym=sym))
        elif opcode == op.EQZ:
            value = pop()
            sym = None
            if value.sym is not None:
                sym = ("cmp", "eq", value.sym, ("const", 0))
            push(AbsVal(taint=value.taint, sym=sym))
        elif opcode in _LOAD_WIDTHS:
            push(self._load(label, mem, pop(), a, _LOAD_WIDTHS[opcode]))
        elif opcode in _STORE_WIDTHS:
            value = pop()
            self._store(label, state, pop(), a, _STORE_WIDTHS[opcode], value)
        elif opcode == op.MEMCOPY:
            length = pop()
            src = pop()
            self._memcopy(label, state, pop(), src, length)
        elif opcode == op.MEMFILL:
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
        elif opcode == op.MEMSIZE:
            push(_cv(self.memory_bytes))
        # superinstructions ------------------------------------------------
        elif opcode == op.GETGET:
            push(local(a))
            push(local(b))
        elif opcode == op.GETCONST:
            push(local(a))
            push(_cv(b & _M64))
        elif opcode == op.ADDI:
            push(_binop("add", pop(), _cv(a & _M64), _add, _M64))
        elif opcode == op.INCL:
            if a < len(locals_):
                locals_[a] = _binop("add", locals_[a], _cv(b & _M64),
                                    _add, _M64)
        elif opcode == op.GETADD:
            push(_binop("add", pop(), local(a), _add, _M64))
        elif opcode == op.MOVL:
            if a < len(locals_) and b < len(locals_):
                locals_[b] = locals_[a]
        elif opcode == op.LOAD8_LOCAL:
            push(self._load(label, mem, local(a), b, 1))
        else:
            # UNREACHABLE, or an unknown opcode Pass 2 reports: path ends
            return []
        return [(pc + 1, state)]

    def _memcopy(self, label: str, state: _State, dst: AbsVal, src: AbsVal,
                 length: AbsVal) -> None:
        mem = state.mem
        dstc, srcc, lenc = dst.const(), src.const(), length.const()
        extra = dst.taint | src.taint | length.taint | state.pc_taint
        if dstc is None or lenc is None or lenc < 0:
            mem.write_unknown_addr(extra | mem.all_taint())
            self.ctx.note_mem(label, self.memory_bytes)
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


# ---------------------------------------------------------------------------
# EVM front end
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

#: opcodes that publish a memory region, as their host-table twins
_EVM_REGION_SINKS = {
    evm_op.LOG0: "log", evm_op.RETURN: "output", evm_op.REVERT: "abort",
}


class _EvmAnalyzer(_Machine):
    def __init__(self, code: bytes, ctx: _Ctx):
        super().__init__(ctx)
        self.code = code

    def analyze_entry(self, label: str, entry: int) -> None:
        self._fixpoint(label, entry, _State([], [], AbsMemory(), _EMPTY),
                       len(self.code), functools.partial(self._step, label))

    def _step(self, label, pc, state):
        code = self.code
        stack = state.stack
        mem = state.mem
        push = stack.append
        opcode = code[pc]

        def pop() -> AbsVal:
            return stack.pop() if stack else _UNKNOWN

        def window() -> str:
            return evm_instruction_window(code, pc)

        self.ctx.note_cost(label, pc, _OCALL if opcode == evm_op.HOSTCALL
                           else evm_op.GAS_TABLE.get(opcode, 1))

        nxt = pc + 1
        if evm_op.PUSH1 <= opcode <= evm_op.PUSH1 + 31:
            width = opcode - evm_op.PUSH1 + 1
            push(_cv(int.from_bytes(code[pc + 1 : pc + 1 + width], "big")))
            return [(pc + 1 + width, state)]
        if evm_op.DUP1 <= opcode <= evm_op.DUP1 + 15:
            depth = opcode - evm_op.DUP1 + 1
            push(stack[-depth] if len(stack) >= depth else _UNKNOWN)
        elif evm_op.SWAP1 <= opcode <= evm_op.SWAP1 + 15:
            depth = opcode - evm_op.SWAP1 + 1
            if len(stack) > depth:
                stack[-1], stack[-1 - depth] = stack[-1 - depth], stack[-1]
        elif opcode == evm_op.POP:
            pop()
        elif opcode == evm_op.JUMPDEST:
            pass
        elif opcode in _EVM_BIN_OPS:
            name, fn = _EVM_BIN_OPS[opcode]
            lhs = pop()
            rhs = pop()
            push(_binop(name, lhs, rhs, fn, _M256))
        elif opcode in (evm_op.DIV, evm_op.SDIV, evm_op.MOD, evm_op.SMOD,
                        evm_op.EXP, evm_op.SIGNEXTEND, evm_op.BYTE,
                        evm_op.SHL, evm_op.SHR, evm_op.SAR):
            lhs = pop()
            rhs = pop()
            push(AbsVal(taint=lhs.taint | rhs.taint))
        elif opcode == evm_op.NOT:
            push(AbsVal(taint=pop().taint))
        elif opcode in _EVM_CMP_OPS:
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
        elif opcode == evm_op.ISZERO:
            value = pop()
            sym = None
            if value.sym is not None:
                sym = ("cmp", "eq", value.sym, ("const", 0))
            consts = None
            known = value.const()
            if known is not None:
                consts = frozenset([0 if known else 1])
            push(AbsVal(taint=value.taint, consts=consts, sym=sym))
        elif opcode == evm_op.MLOAD:
            push(self._load(label, mem, pop(), 0, 32))
        elif opcode in (evm_op.MSTORE, evm_op.MSTORE8):
            addr = pop()
            self._store(label, state, addr, 0,
                        32 if opcode == evm_op.MSTORE else 1, pop())
        elif opcode == evm_op.CALLDATALOAD:
            off = pop()
            offc = off.const()
            sym = ("input", offc, 32) if offc is not None else None
            push(AbsVal(taint=off.taint, sym=sym))
        elif opcode == evm_op.CALLDATASIZE:
            push(AbsVal(sym=("input_size",)))
        elif opcode == evm_op.CALLDATACOPY:
            dst = pop()
            src = pop()
            self._copy_input(label, mem, dst, src, pop())
        elif opcode == evm_op.CODECOPY:
            dst = pop()
            src = pop()
            length = pop()
            dstc, srcc, lenc = dst.const(), src.const(), length.const()
            if dstc is not None and lenc is not None and lenc >= 0:
                self.ctx.note_mem(label, dstc + lenc)
                if srcc is not None:
                    chunk = code[srcc : srcc + lenc]
                    chunk = chunk + bytes(lenc - len(chunk))
                    mem.write_bytes(dstc, chunk, _EMPTY)
                else:
                    mem.write_unknown(dstc, lenc, _EMPTY)
            else:
                mem.write_unknown_addr(_EMPTY)
        elif opcode == evm_op.KECCAK256:
            off = pop()
            push(AbsVal(taint=_bytes_taint(mem, off, pop())))
        elif opcode == evm_op.CALLER:
            push(AbsVal(sym=("caller",)))
        elif opcode == evm_op.SLOAD:
            # Slotted keys are hashes: never provably confidential, so
            # SLOAD is not a source (documented imprecision).
            push(AbsVal(taint=pop().taint))
        elif opcode == evm_op.SSTORE:
            key = pop()
            value = pop()
            self.ctx.sink(FLOW_STORAGE_SET, _UNPROVEN_KEY, label, pc, window,
                          value.taint | key.taint | state.pc_taint)
        elif opcode in _EVM_REGION_SINKS:
            off = pop()
            self._region_sink(_EVM_REGION_SINKS[opcode], label, pc, state,
                              off, pop(), window)
            if opcode != evm_op.LOG0:
                return []
        elif opcode == evm_op.JUMP:
            dest = pop()
            if dest.consts is None:
                return []  # unresolvable jump: path abandoned (documented)
            if dest.taint:
                state.pc_taint = state.pc_taint | dest.taint
            return [(d, state.copy()) for d in sorted(dest.consts)]
        elif opcode == evm_op.JUMPI:
            dest = pop()
            cond = pop()
            taken = dest.const()
            self._branch_constraint(label, pc, cond,
                                    taken if taken is not None else -1, nxt)
            if cond.taint:
                state.pc_taint = state.pc_taint | cond.taint
            known = cond.const()
            successors = []
            if (known is None or known) and dest.consts is not None:
                successors.extend(
                    (d, state.copy()) for d in sorted(dest.consts)
                )
            if known is None or not known:
                successors.append((nxt, state.copy()))
            return successors
        elif opcode == evm_op.HOSTCALL:
            idx = pop().const()
            if idx is not None and 0 <= idx < len(host_mod.HOST_TABLE):
                imp = host_mod.HOST_TABLE[idx]
                args = [pop() for _ in range(imp.nparams)]
                args.reverse()
                if not self._host_call(label, pc, imp.name, imp.nresults,
                                       args, state, window):
                    return []
            else:
                mem.write_unknown_addr(_EMPTY)
        elif opcode in (evm_op.PC, evm_op.MSIZE, evm_op.GAS):
            push(_UNKNOWN)
        else:
            # STOP, INVALID, or an opcode Pass 2 reports: path ends
            return []
        return [(nxt, state)]


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
