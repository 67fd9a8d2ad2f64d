"""CONFIDE-VM execution: each function translated once into Python.

A module runs over a fixed-size linear memory of 64-bit integers
(values held unsigned in [0, 2^64); signed operators reinterpret).
Instead of dispatching every instruction through an opcode chain, a
:class:`ModuleTemplate` translates each function, on its first call,
into one Python function — the analogue of the paper's code cache
holding prepared code (OPT1):

- the body is cut into regions at jump targets; a ``while`` loop picks
  the region by a binary search on its start, and inside a region the
  code is straight-line, leaving only at conditional branches;
- the operand stack lives in Python expressions and temporaries while
  a region runs; only values that cross a region boundary, or that a
  region finds already there, go through a list;
- VM locals are Python locals and immediates are inlined;
- a function longer than ``_CHUNK`` instructions is translated in
  chunks of regions, each on its first entry, so translating never
  holds more than one chunk's source and syntax tree at a time.

Semantics are the instruction-by-instruction ones, exactly: fuel (the
step limit) is charged per instruction — a cumulative check before each
instruction that can trap or has an effect — so the same instruction
traps with ``out of fuel`` after the same host effects; trap texts, the
coverage sites ``(fidx, pc)`` and the executed-instruction count
reported in :class:`~repro.vm.host.ExecutionResult` (how the "~450K
instructions to parse JSON" measurements of §6.4 are reproduced) are
unchanged.

Identical function bodies share one translation per template owner
(the engine's :class:`~repro.vm.wasm.code_cache.CodeCache`).  With
``pooled`` on (OPT1's memory pool), linear memory comes from a
per-thread pool and only the extent a call dirtied is zeroed on
release.
"""

from __future__ import annotations

import mmap
import threading
import weakref
from bisect import bisect_right

from repro.errors import TrapError, VMError
from repro.obs.trace import get_tracer
from repro.vm.host import ExecutionResult, HostBridge, HostContext
from repro.vm.wasm import opcodes as op
from repro.vm.wasm.module import Function, Module, validate_module

_M = (1 << 64) - 1
_S = 1 << 63

DEFAULT_MAX_STEPS = 200_000_000
_MAX_CALL_DEPTH = 128

# A VM store dirties at most this many bytes past its address; the
# per-function extent tracks store addresses and adds this on release.
_STORE_SPAN = 8
# Pooled buffers kept per thread and size (nested calls hold one each).
_POOL_KEEP = 8
# A pushed expression longer than this is computed into a temporary.
_MAX_EXPR = 160
# Longer functions are translated in chunks of at most this many
# instructions (compile() peaks at several KB per instruction).
_CHUNK = 512


# ---------------------------------------------------------------------------
# Linear-memory pool
# ---------------------------------------------------------------------------

_pool = threading.local()


def _acquire(size: int) -> mmap.mmap:
    """A zeroed linear memory from this thread's pool.  A new one is an
    anonymous mapping: its pages cost nothing until a call writes them,
    where a fresh ``bytearray`` zero-fills (and faults in) all of them."""
    free = getattr(_pool, "free", None)
    if free is None:
        free = _pool.free = {}
    buffers = free.get(size)
    if buffers:
        return buffers.pop()
    return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)


def _release(buffer: mmap.mmap, size: int, extent: int) -> None:
    """Zero the dirtied extent and return the buffer to this thread's pool."""
    extent = min(extent, size)
    buffer[:extent] = bytes(extent)
    buffers = _pool.free.setdefault(size, [])
    if len(buffers) < _POOL_KEEP:
        buffers.append(buffer)


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

_CONDITIONAL = frozenset({op.JMP_IF, op.JMP_IFZ, op.CMP_BR})
_ENDS_FLOW = frozenset({op.JMP, op.RETURN, op.UNREACHABLE})
_MEMORY_OPS = frozenset({
    op.LOAD8_U, op.LOAD16_U, op.LOAD32_U, op.LOAD64, op.LOAD8_LOCAL,
    op.STORE8, op.STORE16, op.STORE32, op.STORE64, op.MEMCOPY, op.MEMFILL,
    op.MEMSIZE,
})
_WRITES = frozenset({op.STORE8, op.STORE16, op.STORE32, op.STORE64,
                     op.MEMCOPY, op.MEMFILL})
# Instructions that neither trap nor have an effect while their operands
# are symbolic; every other instruction gets a fuel check.
_QUIET = frozenset({
    op.NOP, op.CONST, op.DROP, op.LOCAL_GET, op.LOCAL_SET, op.LOCAL_TEE,
    op.SELECT, op.ADD, op.SUB, op.MUL, op.DIV_U, op.REM_U, op.AND, op.OR,
    op.XOR, op.SHL, op.SHR_U, op.SHR_S, op.EQZ, op.MEMSIZE, op.GETGET,
    op.GETCONST, op.ADDI, op.GETADD, op.MOVL, op.INCL,
}) | frozenset(range(op.EQ, op.GE_U + 1))
_OUT_OF_FUEL = "raise TrapError('out of fuel')"

_LOADS = {op.LOAD8_U: ("load8", 1), op.LOAD16_U: ("load16", 2),
          op.LOAD32_U: ("load32", 4), op.LOAD64: ("load64", 8)}
_STORES = {op.STORE8: ("store8", 1), op.STORE16: ("store16", 2),
           op.STORE32: ("store32", 4), op.STORE64: ("store64", 8)}

_ARITH = {op.ADD: "{l} + {r}", op.SUB: "{l} - {r}", op.MUL: "{l} * {r}"}
_BITWISE = {op.AND: "{l} & {r}", op.OR: "{l} | {r}", op.XOR: "{l} ^ {r}"}
_SIGNED_CMP = {op.CMP_LT_S: "<", op.CMP_GT_S: ">", op.CMP_LE_S: "<=",
               op.CMP_GE_S: ">="}
_UNSIGNED_CMP = {op.CMP_EQ: "==", op.CMP_NE: "!=", op.CMP_LT_U: "<",
                 op.CMP_GT_U: ">", op.CMP_LE_U: "<=", op.CMP_GE_U: ">="}


def _atom(expr: str) -> bool:
    return expr.isidentifier() or expr.isdigit()


def _p(expr: str) -> str:
    return expr if _atom(expr) else f"({expr})"


def _signed_expr(expr: str) -> str:
    if expr.isdigit():
        value = int(expr)
        return str(value - (1 << 64) if value & _S else value)
    return f"(({_p(expr)} ^ {_S}) - {_S})"


def _compare(kind: int, lhs: str, rhs: str) -> str:
    if kind in _UNSIGNED_CMP:
        return f"{_p(lhs)} {_UNSIGNED_CMP[kind]} {_p(rhs)}"
    return f"({_p(lhs)} ^ {_S}) {_SIGNED_CMP[kind]} ({_p(rhs)} ^ {_S})"


class _Emitter:
    """Translates a run of instructions, keeping the operand stack symbolic.

    ``sym`` holds the values pushed since the region began, as pure
    Python expressions with the VM locals each one reads; anything that
    can trap (a pop from the real stack, a memory access, a division, a
    call) is emitted in program order, so traps fire where they did.
    ``count`` is the instruction's place in its fuel run; ``risky`` is
    set when a quiet instruction had to touch the real stack or test a
    divisor, so that it gets a fuel check too.
    """

    def __init__(self, body: "_Body", indent: int):
        self.body = body
        self.lines: list[str] = []
        self.indent = indent
        self.sym: list[tuple[str, frozenset]] = []
        self.ntemps = 0
        self.uses_list = False
        self.count = 0
        self.risky = False

    # -- plumbing ------------------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def temp(self) -> str:
        name = f"t{self.ntemps}"
        self.ntemps += 1
        return name

    def push(self, expr: str, refs: frozenset = frozenset()) -> None:
        if len(expr) > _MAX_EXPR:
            # Long chains would nest past the parser's limits.
            expr, refs = self.materialize(expr), frozenset()
        self.sym.append((expr, refs))

    def pop(self) -> tuple[str, frozenset]:
        """A value the instruction takes with ``stack.pop()``."""
        if self.sym:
            return self.sym.pop()
        self.uses_list = self.risky = True
        name = self.temp()
        self.line(f"{name} = pop()")
        return name, frozenset()

    def top(self) -> tuple[str, frozenset]:
        """A value the instruction reads as ``stack[-1]`` and replaces."""
        if self.sym:
            return self.sym.pop()
        self.uses_list = self.risky = True
        name = self.temp()
        self.line(f"{name} = stack[-1]")
        self.line("del stack[-1]")
        return name, frozenset()

    def materialize(self, expr: str) -> str:
        if _atom(expr):
            return expr
        name = self.temp()
        self.line(f"{name} = {expr}")
        return name

    def set_local(self, index: int, expr: str) -> None:
        """``L{index} = expr``, first pinning pushed values that read it."""
        for i, (value, refs) in enumerate(self.sym):
            if index in refs:
                name = self.temp()
                self.line(f"{name} = {value}")
                self.sym[i] = (name, frozenset())
        self.line(f"L{index} = {expr}")

    def flush_lines(self) -> list[str]:
        return [f"push({value})" for value, _refs in self.sym]

    def flush(self) -> None:
        for text in self.flush_lines():
            self.uses_list = True
            self.line(text)
        self.sym.clear()

    def binary(self, template: str, mask: bool) -> None:
        rhs, rrefs = self.pop()
        lhs, lrefs = self.top()
        expr = template.format(l=_p(lhs), r=_p(rhs))
        self.push(f"({expr}) & {_M}" if mask else expr, lrefs | rrefs)

    def address(self, base: str, offset: int) -> str:
        if offset == 0:
            return self.materialize(base)
        if base.isdigit():
            return str(int(base) + offset)
        name = self.temp()
        self.line(f"{name} = {_p(base)} + {offset}")
        return name

    def branch(self, pc: int, taken: str, covered: str, target: int) -> None:
        self.line(f"steps -= {self.count}")
        self.line(f"if cov is not None: cov.branch((FIDX, {pc}), {covered})")
        self.line(f"if {taken}:")
        self.indent += 1
        for text in self.flush_lines():
            self.uses_list = True
            self.line(text)
        self.line(f"pc = {target}")
        self.line("continue")
        self.indent -= 1

    # -- one instruction ---------------------------------------------------

    def instr(self, pc: int, opcode: int, a: int, b: int) -> None:
        body = self.body
        if opcode == op.LOCAL_GET:
            self.push(f"L{a}", frozenset((a,)))
        elif opcode == op.CONST:
            self.push(str(a & _M))
        elif opcode == op.GETGET:
            self.push(f"L{a}", frozenset((a,)))
            self.push(f"L{b}", frozenset((b,)))
        elif opcode == op.GETCONST:
            self.push(f"L{a}", frozenset((a,)))
            self.push(str(b & _M))
        elif opcode == op.LOCAL_SET:
            value, _refs = self.pop()
            self.set_local(a, value)
        elif opcode == op.LOCAL_TEE:
            if self.sym:
                self.set_local(a, self.sym.pop()[0])
            else:
                self.uses_list = self.risky = True
                self.set_local(a, "stack[-1]")
                self.line("del stack[-1]")
            self.push(f"L{a}", frozenset((a,)))
        elif opcode == op.MOVL:
            self.set_local(b, f"L{a}")
        elif opcode == op.INCL:
            self.set_local(a, f"(L{a} + {b}) & {_M}")
        elif opcode == op.ADDI:
            value, refs = self.top()
            self.push(f"({_p(value)} + {a}) & {_M}", refs)
        elif opcode == op.GETADD:
            value, refs = self.top()
            self.push(f"({_p(value)} + L{a}) & {_M}", refs | {a})
        elif opcode in _ARITH:
            self.binary(_ARITH[opcode], True)
        elif opcode in _BITWISE:
            self.binary(_BITWISE[opcode], False)
        elif opcode in (op.SHL, op.SHR_U, op.SHR_S):
            amount, rrefs = self.pop()
            amount = (str(int(amount) & 63) if amount.isdigit()
                      else f"({_p(amount)} & 63)")
            value, lrefs = self.top()
            if opcode == op.SHL:
                expr = f"({_p(value)} << {amount}) & {_M}"
            elif opcode == op.SHR_U:
                expr = f"{_p(value)} >> {amount}"
            else:
                expr = f"({_signed_expr(value)} >> {amount}) & {_M}"
            self.push(expr, lrefs | rrefs)
        elif opcode == op.EQZ:
            value, refs = self.top()
            self.push(f"(0 if {_p(value)} else 1)", refs)
        elif op.EQ <= opcode <= op.GE_U:
            rhs, rrefs = self.pop()
            lhs, lrefs = self.top()
            cond = _compare(op.comparison_kind(opcode), lhs, rhs)
            self.push(f"(1 if {cond} else 0)", lrefs | rrefs)
        elif opcode in (op.DIV_S, op.REM_S):
            rhs, _r = self.pop()
            lhs, _l = self.top()
            helper = "div_s" if opcode == op.DIV_S else "rem_s"
            name = self.temp()
            self.line(f"{name} = {helper}({lhs}, {rhs})")
            self.push(name)
        elif opcode in (op.DIV_U, op.REM_U):
            rhs, rrefs = self.pop()
            rhs = self.materialize(rhs)
            if not rhs.isdigit() or int(rhs) == 0:
                word = "division" if opcode == op.DIV_U else "remainder"
                self.risky = True
                self.line(f"if {rhs} == 0: "
                          f"raise TrapError('integer {word} by zero')")
            lhs, lrefs = self.top()
            sign = "//" if opcode == op.DIV_U else "%"
            self.push(f"{_p(lhs)} {sign} {rhs}", lrefs | rrefs)
        elif opcode in _LOADS or opcode == op.LOAD8_LOCAL:
            if opcode == op.LOAD8_LOCAL:
                name, width, base, offset = "load8", 1, f"L{a}", b
            else:
                name, width = _LOADS[opcode]
                base, offset = self.pop()[0], a
            addr = self.address(base, offset)
            if width == 1:
                self.line(f"if {addr} >= memlen: oob('{name}', {addr})")
                value = f"mem[{addr}]"
            else:
                self.line(f"if {addr} + {width} > memlen: oob('{name}', {addr})")
                value = f"from_bytes(mem[{addr}:{addr} + {width}], 'big')"
            result = self.temp()
            self.line(f"{result} = {value}")
            self.push(result)
        elif opcode in _STORES:
            name, width = _STORES[opcode]
            value = self.pop()[0]
            addr = self.address(self.pop()[0], a)
            if width == 1:
                self.line(f"if {addr} >= memlen: oob('{name}', {addr})")
                self.line(f"mem[{addr}] = {_p(value)} & 255")
            else:
                self.line(f"if {addr} + {width} > memlen: oob('{name}', {addr})")
                mask = (1 << 8 * width) - 1
                if value.isdigit():
                    data = repr((int(value) & mask).to_bytes(width, "big"))
                elif width == 8:
                    data = f"({value}).to_bytes(8, 'big')"
                else:
                    data = f"({_p(value)} & {mask}).to_bytes({width}, 'big')"
                self.line(f"mem[{addr}:{addr} + {width}] = {data}")
            self.line(f"if {addr} > hi: hi = {addr}")
        elif opcode in (op.MEMCOPY, op.MEMFILL):
            length = self.materialize(self.pop()[0])
            second = self.pop()[0]
            if opcode == op.MEMCOPY:
                src = self.materialize(second)
            else:
                fill = self.materialize(f"{_p(second)} & 255")
            dst = self.materialize(self.pop()[0])
            if opcode == op.MEMCOPY:
                self.line(f"if {src} + {length} > memlen or "
                          f"{dst} + {length} > memlen: "
                          "raise TrapError('memcopy out of bounds')")
                self.line(f"mem[{dst}:{dst} + {length}] = "
                          f"mem[{src}:{src} + {length}]")
            else:
                self.line(f"if {dst} + {length} > memlen: "
                          "raise TrapError('memfill out of bounds')")
                self.line(f"mem[{dst}:{dst} + {length}] = "
                          f"bytes(({fill},)) * {length}")
            self.line(f"if {dst} + {length} > hi: hi = {dst} + {length}")
        elif opcode == op.MEMSIZE:
            self.push("memlen")
        elif opcode == op.SELECT:
            cond, crefs = self.pop()
            if_false, frefs = self.pop()
            if_true, trefs = self.pop()
            self.push(f"{_p(if_true)} if {_p(cond)} else {_p(if_false)}",
                      crefs | frefs | trefs)
        elif opcode == op.CALL:
            nparams, nresults = body.callees[a]
            args = self.take_args(nparams, "call_args")
            self.line(f"self.steps_left = steps - {self.count}")
            call = f"call({a}, {args})"
            if nresults:
                result = self.temp()
                self.line(f"{result} = {call}")
                self.push(result)
            else:
                self.line(call)
            self.line("steps = self.steps_left")
        elif opcode == op.CALL_HOST:
            nparams, nresults = body.hosts[a]
            if len(self.sym) >= nparams:
                args = ", ".join(_signed_expr(v) for v, _r in
                                 self.sym[len(self.sym) - nparams:])
                del self.sym[len(self.sym) - nparams:]
            else:
                args = "*" + self.take_args(nparams, "host_args")
            call = f"hosts[{a}]({args})"
            if nresults:
                result = self.temp()
                self.line(f"{result} = {call}")
                self.line(f"{result} = ({result} if {result} is not None "
                          f"else 0) & {_M}")
                self.push(result)
            else:
                self.line(call)
        elif opcode == op.DROP:
            if self.sym:
                self.sym.pop()
            else:
                self.uses_list = self.risky = True
                self.line("pop()")
        elif opcode == op.RETURN:
            self.line(f"self.steps_left = steps - {self.count}")
            if body.func.nresults:
                self.line(f"return {self.pop()[0]}")
            else:
                self.line("return None")
        elif opcode == op.UNREACHABLE:
            self.line("raise TrapError('unreachable executed')")
        elif opcode == op.JMP:
            self.flush()
            self.line(f"steps -= {self.count}")
            self.line(f"pc = {a}")
        elif opcode == op.JMP_IF:
            value = _p(self.pop()[0])
            self.branch(pc, value, f"{value} != 0", a)
        elif opcode == op.JMP_IFZ:
            value = _p(self.pop()[0])
            self.branch(pc, f"not {value}", f"{value} == 0", a)
        elif opcode == op.CMP_BR:
            rhs = self.pop()[0]
            lhs = self.pop()[0]
            cond = _compare(b, lhs, rhs)
            self.branch(pc, cond, cond, a)
        elif opcode == op.NOP:
            pass
        else:  # unreachable for validated code
            self.line(f"raise TrapError('unknown opcode {opcode}')")

    def take_args(self, nparams: int, helper: str) -> str:
        """The call's arguments: symbolic when all are, else sliced off
        the real stack exactly as the instruction-level VM did."""
        if len(self.sym) >= nparams:
            args = [v for v, _r in self.sym[len(self.sym) - nparams:]]
            del self.sym[len(self.sym) - nparams:]
            return "[" + ", ".join(args) + "]"
        self.flush()
        self.uses_list = True
        name = self.temp()
        self.line(f"{name} = {helper}(stack, {nparams})")
        return name


class _Body:
    """One distinct function body and its translation.

    ``make(fidx)`` returns the body's Python function for function
    index ``fidx`` (the only per-index value is the coverage site).  A
    body longer than ``_CHUNK`` instructions is translated in chunks of
    at most that many, each on its first entry, so the transient memory
    of ``compile()`` is bounded by the chunk, not the function; its VM
    locals then live in a list between chunks.
    """

    def __init__(self, func: Function, callees: dict, hosts: dict):
        self.func = func
        self.callees = callees
        self.hosts = hosts
        code = func.code
        leaders = {0} | {a for (opcode, a, _b) in code if opcode in op.BRANCH_OPS}
        if len(code) > _CHUNK:
            # No region may outgrow a chunk: cut long straight runs.
            bounds = sorted(leaders) + [len(code)]
            for lo, hi in zip(bounds, bounds[1:]):
                leaders.update(range(lo + _CHUNK, hi, _CHUNK))
        self.leaders = sorted(leaders)
        self.has_memory = any(opc in _MEMORY_OPS for (opc, _a, _b) in code)
        self.writes = any(opc in _WRITES for (opc, _a, _b) in code)
        self.branches = any(opc in _CONDITIONAL for (opc, _a, _b) in code)
        if len(code) <= _CHUNK:
            self.make = self._compile()
        else:
            self.make = self._compile_chunked()

    # -- regions -------------------------------------------------------------

    def _region(self, start: int, end: int, indent: int) -> _Emitter:
        """Straight-line code for ``code[start:end]``.

        Fuel is charged per instruction, as a cumulative check
        ``steps < n`` placed before each instruction that can trap or
        has an effect (pure pushes need none: nothing can observe
        them), and paid off with ``steps -= n`` at each branch, call,
        jump, return and at the region's end.
        """
        code = self.func.code
        em = _Emitter(self, indent)
        checked = 0
        for i in range(start, end):
            opcode, a, b = code[i]
            em.count += 1
            em.risky = False
            mark, indent = len(em.lines), em.indent
            em.instr(i, opcode, a, b)
            if em.risky or opcode not in _QUIET:
                em.lines.insert(mark, "    " * indent +
                                f"if steps < {em.count}: {_OUT_OF_FUEL}")
                checked = em.count
            if opcode in _ENDS_FLOW:
                return em
            if opcode in _CONDITIONAL or opcode == op.CALL:
                em.count = checked = 0
        em.flush()
        if em.count:
            if checked < em.count:
                em.line(f"if steps < {em.count}: {_OUT_OF_FUEL}")
            em.line(f"steps -= {em.count}")
        em.line(f"pc = {end}")
        return em

    def _tree(self, lo: int, hi: int, indent: int, out: list) -> bool:
        """Binary search over region starts ``leaders[lo:hi]``; returns
        whether any region used the real stack."""
        leaders = self.leaders
        if hi - lo == 1:
            end = leaders[lo + 1] if lo + 1 < len(leaders) else len(self.func.code)
            em = self._region(leaders[lo], end, indent)
            out.extend(em.lines)
            return em.uses_list
        mid = (lo + hi) // 2
        out.append("    " * indent + f"if pc < {leaders[mid]}:")
        uses = self._tree(lo, mid, indent + 1, out)
        out.append("    " * indent + "else:")
        return self._tree(mid, hi, indent + 1, out) or uses

    def _prologue(self, uses_list: bool) -> list[str]:
        lines = []
        if self.has_memory:
            lines += ["mem = self.memory", "memlen = len(mem)"]
        if self.branches:
            lines.append("cov = self._coverage")
        if self.hosts:
            lines.append("hosts = self._hosts")
        if self.callees:
            lines.append("call = self._call")
        if uses_list:
            lines += ["push = stack.append", "pop = stack.pop"]
        if self.writes:
            lines.append("hi = 0")
        return lines

    def _wrap(self, body: list[str]) -> list[str]:
        """``body`` inside the trap translation and the extent update."""
        src = ["try:"] + ["    " + text for text in body]
        src += [
            "except IndexError as exc:",
            "    raise TrapError(f'stack underflow or bad index: {exc}') from exc",
        ]
        if self.writes:
            src += ["finally:", "    if hi > self.dirty: self.dirty = hi"]
        return src

    @staticmethod
    def _exec(src: list[str], names: dict, result: str):
        namespace: dict = {}
        exec(compile("\n".join(src), "<confide-vm>", "exec"), names, namespace)
        return namespace[result]

    # -- whole functions -------------------------------------------------------

    def _compile(self):
        func = self.func
        body: list[str] = []
        if any(opc in op.BRANCH_OPS for (opc, _a, _b) in func.code):
            body += ["pc = 0", "while True:"]
            uses_list = self._tree(0, len(self.leaders), 1, body)
        else:
            em = self._region(0, len(func.code), 0)
            body += em.lines
            uses_list = em.uses_list
        nvars = func.nparams + func.nlocals
        head = [f"L{i} &= {_M}" for i in range(func.nparams)]
        if nvars > func.nparams:
            head.append(" = ".join(f"L{i}" for i in range(func.nparams, nvars))
                        + " = 0")
        if uses_list:
            head.append("stack = []")
        head += self._prologue(uses_list) + ["steps = self.steps_left"]
        params = "".join(f", L{i}" for i in range(func.nparams))
        src = ["def make(FIDX):", f"    def run(self{params}):"]
        src += ["        " + text for text in head + self._wrap(body)]
        src.append("    return run")
        return self._exec(src, _RUNTIME, "make")

    # -- oversized functions, chunk by chunk ----------------------------------

    def _compile_chunked(self):
        """Entry function of an oversized body: it holds the VM locals
        in a list and hands control to the chunk that holds ``pc``."""
        func = self.func
        leaders = self.leaders
        # Consecutive regions, at most _CHUNK instructions per chunk.
        self.spans: list[tuple[int, int]] = []   # leader index ranges
        first = 0
        for j in range(1, len(leaders) + 1):
            end = leaders[j] if j < len(leaders) else len(func.code)
            if end - leaders[first] > _CHUNK:
                self.spans.append((first, j - 1))
                first = j - 1
        self.spans.append((first, len(leaders)))
        self.chunks: list = [None] * len(self.spans)
        params = "".join(f", L{i}" for i in range(func.nparams))
        init = "[" + "".join(f"L{i} & {_M}, " for i in range(func.nparams)) + "]"
        if func.nlocals:
            init += f" + [0] * {func.nlocals}"
        src = [
            "def make(FIDX):",
            f"    def run(self{params}):",
            f"        L = {init}",
            "        stack = []",
            "        pc = 0",
            "        steps = self.steps_left",
            "        while True:",
            "            j = bisect(STARTS, pc) - 1",
            "            out = (CHUNKS[j] or chunk(j))"
            "(self, FIDX, L, stack, pc, steps)",
            "            if out.__class__ is not tuple:",
            "                return out",
            "            pc, steps = out",
            "    return run",
        ]
        starts = [leaders[lo] for lo, _hi in self.spans]
        names = dict(_RUNTIME, bisect=bisect_right, STARTS=starts,
                     CHUNKS=self.chunks, chunk=self._chunk)
        return self._exec(src, names, "make")

    def _chunk(self, j: int):
        """Translate chunk ``j``: its regions, left with ``(pc, steps)``
        when control moves to another chunk."""
        lo, hi = self.spans[j]
        leaders = self.leaders
        start = leaders[lo]
        end = leaders[hi] if hi < len(leaders) else len(self.func.code)
        nvars = self.func.nparams + self.func.nlocals
        local_names = "".join(f"L{i}, " for i in range(nvars))
        body = [
            "while True:",
            f"    if pc < {start} or pc >= {end}:",
        ]
        if nvars:
            body.append(f"        L[:] = ({local_names})")
        body.append("        return pc, steps")
        uses_list = self._tree(lo, hi, 1, body)
        head = [f"{local_names} = L"] if nvars else []
        src = ["def chunk(self, FIDX, L, stack, pc, steps):"]
        src += ["    " + text for text in
                head + self._prologue(uses_list) + self._wrap(body)]
        fn = self.chunks[j] = self._exec(src, _RUNTIME, "chunk")
        return fn


def _oob(name: str, addr: int):
    raise TrapError(f"{name} out of bounds at {addr}")


def _div_s(lhs: int, rhs: int) -> int:
    rhs = rhs - (1 << 64) if rhs & _S else rhs
    lhs = lhs - (1 << 64) if lhs & _S else lhs
    if rhs == 0:
        raise TrapError("integer division by zero")
    quotient = abs(lhs) // abs(rhs)
    if (lhs < 0) != (rhs < 0):
        quotient = -quotient
    return quotient & _M


def _rem_s(lhs: int, rhs: int) -> int:
    rhs = rhs - (1 << 64) if rhs & _S else rhs
    lhs = lhs - (1 << 64) if lhs & _S else lhs
    if rhs == 0:
        raise TrapError("integer remainder by zero")
    remainder = abs(lhs) % abs(rhs)
    if lhs < 0:
        remainder = -remainder
    return remainder & _M


def _call_args(stack: list, nargs: int) -> list:
    args = stack[len(stack) - nargs:] if nargs else []
    del stack[len(stack) - nargs:]
    return args


def _host_args(stack: list, nargs: int) -> list:
    raw = stack[len(stack) - nargs:]
    del stack[len(stack) - nargs:]
    return [v - (1 << 64) if v & _S else v for v in raw]


_RUNTIME = {
    "TrapError": TrapError,
    "oob": _oob,
    "div_s": _div_s,
    "rem_s": _rem_s,
    "call_args": _call_args,
    "host_args": _host_args,
    "from_bytes": int.from_bytes,
}


# ---------------------------------------------------------------------------
# Templates and instances
# ---------------------------------------------------------------------------

class BodyTable:
    """Translated bodies keyed by content, shared by the templates of one
    owner; a body lives as long as a template still uses it."""

    def __init__(self):
        self._bodies: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self._lock = threading.Lock()

    def get(self, key, build) -> _Body:
        with self._lock:
            body = self._bodies.get(key)
        if body is None:
            # Translate outside the lock; a racing twin is discarded.
            body = build()
            with self._lock:
                body = self._bodies.setdefault(key, body)
        return body


class ModuleTemplate:
    """Everything the calls of one prepared module share: the module,
    its data image, its host-binding layout and its functions, each
    translated on its first call.

    ``bodies`` maps a body's content to its translation; an owner that
    passes one mapping to many templates (the engine's code cache)
    translates a body that several modules contain once.
    """

    def __init__(self, module: Module, bodies=None):
        self.module = module
        self.functions = module.functions
        self.exports = module.exports
        self.memory_bytes = module.memory_bytes
        self.data = [(seg.offset, seg.data) for seg in module.data]
        self.data_end = max((off + len(d) for off, d in self.data), default=0)
        self.host_names = tuple(imp.name for imp in module.hosts)
        self.nparams = [f.nparams for f in module.functions]
        self.compiled: list = [None] * len(module.functions)
        # The translations in use; the table only holds them weakly.
        self._in_use: list = [None] * len(module.functions)
        self._bodies = BodyTable() if bodies is None else bodies

    def compile(self, fidx: int):
        """Translate function ``fidx`` (on its first call)."""
        module = self.module
        func = module.functions[fidx]
        callees = {a: (module.functions[a].nparams, module.functions[a].nresults)
                   for (opcode, a, _b) in func.code if opcode == op.CALL}
        hosts = {a: (module.hosts[a].nparams, module.hosts[a].nresults)
                 for (opcode, a, _b) in func.code if opcode == op.CALL_HOST}
        key = (func.nparams, func.nlocals, func.nresults, tuple(func.code),
               tuple(sorted(callees.items())), tuple(sorted(hosts.items())))
        body = self._in_use[fidx] = self._bodies.get(
            key, lambda: _Body(func, callees, hosts))
        fn = self.compiled[fidx] = body.make(fidx)
        return fn


class WasmInstance:
    """One call's instantiation of a template: memory + host bindings.

    ``module`` is a :class:`ModuleTemplate`, or a bare :class:`Module`,
    which is validated and gets a template of its own.  With ``pooled``
    the linear memory comes from this thread's pool and goes back,
    zeroed where it was dirtied, when :meth:`run` returns or traps.
    """

    def __init__(
        self,
        module: ModuleTemplate | Module,
        context: HostContext,
        max_steps: int = DEFAULT_MAX_STEPS,
        pooled: bool = False,
    ):
        if isinstance(module, Module):
            validate_module(module)
            module = ModuleTemplate(module)
        self.template = template = module
        size = template.memory_bytes
        self._pooled = pooled
        self.memory = memory = _acquire(size) if pooled else bytearray(size)
        for offset, data in template.data:
            end = offset + len(data)
            if end > len(memory):
                raise VMError("data segment out of memory bounds")
            memory[offset:end] = data
        self.dirty = 0
        self.result = ExecutionResult()
        self._bridge = bridge = HostBridge(context, memory, self.result)
        hosts = [getattr(bridge, name, None) for name in template.host_names]
        for name, handler in zip(template.host_names, hosts):
            if handler is None:
                raise VMError(f"module imports unknown host function '{name}'")
        self._hosts = hosts
        self.steps_left = max_steps
        self._max_steps = max_steps
        self._depth = 0
        # Coverage-only hook (obs/trace.py): a CoverageMap or None.
        # Sampled once per instantiation; branch arms check it with a
        # single ``is not None`` so the uninstrumented path stays hot.
        self._coverage = get_tracer().coverage

    def run(self, export: str, args: list[int] | None = None) -> ExecutionResult:
        """Invoke an exported function; returns the execution result."""
        try:
            fidx = self.template.exports.get(export)
            if fidx is None:
                raise VMError(f"module has no export '{export}'")
            value = self._call(fidx, list(args or []))
        finally:
            if self._pooled:
                self._release()
        self.result.instructions = self._max_steps - self.steps_left
        if value is not None and not self.result.output:
            self.result.output = (value & _M).to_bytes(8, "big")
        return self.result

    def _release(self) -> None:
        template = self.template
        extent = max(self.dirty + _STORE_SPAN, self._bridge.dirty,
                     template.data_end)
        _release(self.memory, template.memory_bytes, extent)
        self.memory = self._bridge.memory = None

    def _call(self, fidx: int, args: list[int]):
        template = self.template
        nparams = template.nparams[fidx]
        if len(args) != nparams:
            raise TrapError(
                f"function {fidx} expects {nparams} args, got {len(args)}"
            )
        self._depth += 1
        if self._depth > _MAX_CALL_DEPTH:
            raise TrapError("call stack exhausted")
        try:
            fn = template.compiled[fidx] or template.compile(fidx)
            return fn(self, *args)
        finally:
            self._depth -= 1
