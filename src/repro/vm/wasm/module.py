"""CONFIDE-VM module binary format.

A compact Wasm-flavoured container: magic, version, and LEB128-encoded
sections (host imports, functions, data segments, exports, memory).  All
integers are LEB128 — unsigned except CONST immediates, which are signed
(paper §6.4 OPT1: "WASM-based contract code has been encoded by LEB128";
decoding it per execution is exactly the cost the code cache removes).

Only the *full* instruction set appears on the wire; superinstructions
exist purely in decoded in-memory code produced by the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import VMError
from repro.vm import host as host_mod
from repro.vm.wasm import opcodes as op

MAGIC = b"CWSM"
VERSION = 1

_SEC_HOSTS = 1
_SEC_FUNCS = 2
_SEC_DATA = 3
_SEC_EXPORTS = 4
_SEC_MEMORY = 5

DEFAULT_MEMORY_PAGES = 16  # 16 * 64 KiB = 1 MiB
PAGE_BYTES = 65536


# ---------------------------------------------------------------------------
# LEB128
# ---------------------------------------------------------------------------

def encode_uleb(value: int) -> bytes:
    if value < 0:
        raise VMError("uleb cannot encode negative values")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def encode_sleb(value: int) -> bytes:
    out = bytearray()
    more = True
    while more:
        byte = value & 0x7F
        value >>= 7
        if (value == 0 and not byte & 0x40) or (value == -1 and byte & 0x40):
            more = False
        else:
            byte |= 0x80
        out.append(byte)
    return bytes(out)


def decode_uleb(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise VMError("truncated uleb")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise VMError("uleb too long")


def decode_sleb(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise VMError("truncated sleb")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            if byte & 0x40:
                result |= -1 << shift
            return result, pos
        if shift > 70:
            raise VMError("sleb too long")


# ---------------------------------------------------------------------------
# Module model
# ---------------------------------------------------------------------------

Instr = tuple[int, int, int]  # (opcode, imm_a, imm_b)


@dataclass
class Function:
    """One function body: decoded flat code with absolute jump targets."""

    nparams: int
    nlocals: int  # additional locals beyond params
    nresults: int  # 0 or 1
    code: list[Instr] = field(default_factory=list)


@dataclass
class DataSegment:
    offset: int
    data: bytes


@dataclass
class Module:
    """A decoded CONFIDE-VM module."""

    functions: list[Function] = field(default_factory=list)
    hosts: list[host_mod.HostImport] = field(default_factory=list)
    data: list[DataSegment] = field(default_factory=list)
    exports: dict[str, int] = field(default_factory=dict)
    memory_pages: int = DEFAULT_MEMORY_PAGES

    @property
    def memory_bytes(self) -> int:
        return self.memory_pages * PAGE_BYTES


def instr(opcode: int, a: int = 0, b: int = 0) -> Instr:
    return (opcode, a, b)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def encode_module(module: Module) -> bytes:
    """Serialize a module to its binary form."""
    out = bytearray(MAGIC)
    out.append(VERSION)

    hosts = bytearray(encode_uleb(len(module.hosts)))
    for imp in module.hosts:
        name = imp.name.encode()
        hosts += encode_uleb(len(name)) + name
        hosts += encode_uleb(imp.nparams) + encode_uleb(imp.nresults)
    _append_section(out, _SEC_HOSTS, hosts)

    funcs = bytearray(encode_uleb(len(module.functions)))
    for func in module.functions:
        funcs += encode_uleb(func.nparams)
        funcs += encode_uleb(func.nlocals)
        funcs += encode_uleb(func.nresults)
        funcs += encode_uleb(len(func.code))
        for opcode, a, b in func.code:
            if opcode >= op.GETGET:
                raise VMError("superinstructions cannot be serialized")
            funcs.append(opcode)
            n_imm = op.IMMEDIATES[opcode]
            if n_imm >= 1:
                if opcode == op.CONST:
                    funcs += encode_sleb(a)
                else:
                    funcs += encode_uleb(a)
            if n_imm >= 2:
                funcs += encode_uleb(b)
    _append_section(out, _SEC_FUNCS, funcs)

    data = bytearray(encode_uleb(len(module.data)))
    for seg in module.data:
        data += encode_uleb(seg.offset)
        data += encode_uleb(len(seg.data)) + seg.data
    _append_section(out, _SEC_DATA, data)

    exports = bytearray(encode_uleb(len(module.exports)))
    for name, idx in sorted(module.exports.items()):
        raw = name.encode()
        exports += encode_uleb(len(raw)) + raw + encode_uleb(idx)
    _append_section(out, _SEC_EXPORTS, exports)

    _append_section(out, _SEC_MEMORY, bytearray(encode_uleb(module.memory_pages)))
    return bytes(out)


def _append_section(out: bytearray, sec_id: int, body: bytearray) -> None:
    out.append(sec_id)
    out += encode_uleb(len(body))
    out += body


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def decode_module(blob: bytes) -> Module:
    """Parse a binary module (the per-load cost OPT1's code cache removes)."""
    if blob[:4] != MAGIC:
        raise VMError("bad module magic")
    if len(blob) < 5 or blob[4] != VERSION:
        raise VMError("unsupported module version")
    module = Module(memory_pages=DEFAULT_MEMORY_PAGES)
    pos = 5
    while pos < len(blob):
        sec_id = blob[pos]
        pos += 1
        size, pos = decode_uleb(blob, pos)
        body = blob[pos : pos + size]
        if len(body) < size:
            raise VMError("truncated section")
        pos += size
        if sec_id == _SEC_HOSTS:
            module.hosts = _decode_hosts(body)
        elif sec_id == _SEC_FUNCS:
            module.functions = _decode_funcs(body)
        elif sec_id == _SEC_DATA:
            module.data = _decode_data(body)
        elif sec_id == _SEC_EXPORTS:
            module.exports = _decode_exports(body)
        elif sec_id == _SEC_MEMORY:
            module.memory_pages, _ = decode_uleb(body, 0)
        else:
            raise VMError(f"unknown section id {sec_id}")
    return module


def _decode_name(body: bytes, pos: int, length: int) -> str:
    try:
        return body[pos : pos + length].decode()
    except UnicodeDecodeError:
        raise VMError("module name is not valid UTF-8") from None


def _decode_hosts(body: bytes) -> list[host_mod.HostImport]:
    count, pos = decode_uleb(body, 0)
    hosts = []
    for _ in range(count):
        nlen, pos = decode_uleb(body, pos)
        name = _decode_name(body, pos, nlen)
        pos += nlen
        nparams, pos = decode_uleb(body, pos)
        nresults, pos = decode_uleb(body, pos)
        hosts.append(host_mod.HostImport(name, nparams, nresults))
    return hosts


def _decode_funcs(body: bytes) -> list[Function]:
    count, pos = decode_uleb(body, 0)
    funcs = []
    for _ in range(count):
        nparams, pos = decode_uleb(body, pos)
        nlocals, pos = decode_uleb(body, pos)
        nresults, pos = decode_uleb(body, pos)
        ninstr, pos = decode_uleb(body, pos)
        code: list[Instr] = []
        for _ in range(ninstr):
            if pos >= len(body):
                raise VMError("truncated function body")
            opcode = body[pos]
            pos += 1
            if opcode not in op.IMMEDIATES or opcode >= op.GETGET:
                raise VMError(f"unknown opcode {opcode} in binary")
            a = b = 0
            n_imm = op.IMMEDIATES[opcode]
            if n_imm >= 1:
                if opcode == op.CONST:
                    a, pos = decode_sleb(body, pos)
                else:
                    a, pos = decode_uleb(body, pos)
            if n_imm >= 2:
                b, pos = decode_uleb(body, pos)
            code.append((opcode, a, b))
        funcs.append(Function(nparams, nlocals, nresults, code))
    return funcs


def _decode_data(body: bytes) -> list[DataSegment]:
    count, pos = decode_uleb(body, 0)
    segments = []
    for _ in range(count):
        offset, pos = decode_uleb(body, pos)
        length, pos = decode_uleb(body, pos)
        segments.append(DataSegment(offset, bytes(body[pos : pos + length])))
        pos += length
    return segments


def _decode_exports(body: bytes) -> dict[str, int]:
    count, pos = decode_uleb(body, 0)
    exports = {}
    for _ in range(count):
        nlen, pos = decode_uleb(body, pos)
        name = _decode_name(body, pos, nlen)
        pos += nlen
        idx, pos = decode_uleb(body, pos)
        exports[name] = idx
    return exports


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_module(module: Module) -> None:
    """Structural validation: indices, jump targets, terminators."""
    for name, idx in module.exports.items():
        if not 0 <= idx < len(module.functions):
            raise VMError(f"export '{name}' references missing function {idx}")
    data_end = 0
    for seg in module.data:
        data_end = max(data_end, seg.offset + len(seg.data))
    if data_end > module.memory_bytes:
        raise VMError("data segments exceed linear memory")
    for fidx, func in enumerate(module.functions):
        nvars = func.nparams + func.nlocals
        size = len(func.code)
        if size == 0:
            raise VMError(f"function {fidx} has empty body")
        last_op = func.code[-1][0]
        if last_op not in (op.RETURN, op.UNREACHABLE, op.JMP):
            raise VMError(f"function {fidx} does not end in RETURN/UNREACHABLE")
        for i, (opcode, a, b) in enumerate(func.code):
            if opcode not in op.IMMEDIATES:
                raise VMError(f"function {fidx} instr {i}: unknown opcode {opcode}")
            if opcode in (op.LOCAL_GET, op.LOCAL_SET, op.LOCAL_TEE, op.GETADD):
                if not 0 <= a < nvars:
                    raise VMError(f"function {fidx} instr {i}: bad local {a}")
            elif opcode in (op.GETGET, op.MOVL):
                if not (0 <= a < nvars and 0 <= b < nvars):
                    raise VMError(f"function {fidx} instr {i}: bad locals {a},{b}")
            elif opcode in (op.GETCONST, op.LOAD8_LOCAL, op.INCL):
                if not 0 <= a < nvars:
                    raise VMError(f"function {fidx} instr {i}: bad local {a}")
                if opcode == op.LOAD8_LOCAL and b < 0:
                    raise VMError(f"function {fidx} instr {i}: negative offset {b}")
            elif op.LOAD8_U <= opcode <= op.STORE64:
                # The binary encodes offsets unsigned; a negative one
                # would index linear memory from its end.
                if a < 0:
                    raise VMError(f"function {fidx} instr {i}: negative offset {a}")
            elif opcode in op.BRANCH_OPS:
                if not 0 <= a < size:
                    raise VMError(f"function {fidx} instr {i}: bad target {a}")
            elif opcode == op.CALL:
                if not 0 <= a < len(module.functions):
                    raise VMError(f"function {fidx} instr {i}: bad callee {a}")
            elif opcode == op.CALL_HOST:
                if not 0 <= a < len(module.hosts):
                    raise VMError(f"function {fidx} instr {i}: bad host index {a}")
