"""Pooled linear memory (OPT1): nothing bleeds from one call to the next.

A writer contract puts canary bytes at high addresses through one write
path per method — each VM store width, ``MEMFILL``, ``MEMCOPY``, a data
segment and every host function that writes memory — then returns or
traps.  The next pooled call, a different contract at the top level or
at a nested depth, must read every one of those bytes as zero, and
every buffer back in the pool must be all zero.  One method per path
makes each path the highest write of its call, so an extent that
forgot any single path leaves a canary behind.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.lang import compile_source
from repro.vm.host import HostContext
from repro.vm.wasm.code_cache import CodeCache, prepare_module
from repro.vm.wasm import interpreter
from repro.vm.wasm.interpreter import ModuleTemplate, WasmInstance
from repro.vm.wasm.module import DataSegment, decode_module, encode_module

HIGH = 0xF0000        # where every write path lands
DATA = 0xE0000        # the writer's high data segment
CANARY = bytes(range(0xA1, 0xB1))           # 16 bytes, no zero

WRITES = {
    "store8": "store8(HIGH, 171);",
    "store16": "store16(HIGH, 43981);",
    "store32": "store32(HIGH, 3735928559);",
    "store64": "store64(HIGH, 1311768467294899695);",
    "memfill": "memfill(HIGH, 171, 16);",
    "memcopy": "memcopy(HIGH, DATA, 16);",
    "input": "input_read(HIGH, 0, 16);",
    "storage": 'storage_get("k", 1, HIGH, 16);',
    "sha256": "sha256(DATA, 16, HIGH);",
    "keccak": "keccak256(DATA, 16, HIGH);",
    "caller": "caller(HIGH);",
    "call": 'call_contract("a", 1, "m", 1, "x", 1, HIGH, 16);',
    "data": "",  # the data segment is the only high write
}
PATHS = sorted(WRITES)


def _writer_source() -> str:
    lines = []
    for name, stmt in WRITES.items():
        stmt = stmt.replace("HIGH", str(HIGH)).replace("DATA", str(DATA))
        lines.append(f"fn ok_{name}() {{ {stmt} }}")
        lines.append(f"fn trap_{name}() {{ {stmt} let z = 0; let q = 1 / z; }}")
    return "\n".join(lines)


READER_SOURCE = f"""
fn scan() {{
    let acc = 0;
    let p = {DATA};
    while (p < {HIGH + 64}) {{
        acc = acc | load64(p);
        p = p + 8;
    }}
    let out = alloc(8);
    store64(out, acc);
    output(out, 8);
}}
"""

OUTER_SOURCE = """
fn nest() {
    let buf = alloc(16);
    call_contract("w", 1, "m", 1, "x", 1, buf, 16);
}
"""


def _writer_blob() -> bytes:
    module = decode_module(compile_source(_writer_source(), "wasm").code)
    module.data.append(DataSegment(DATA, CANARY))
    return encode_module(module)


class CanaryHost(HostContext):
    """Answers every memory-writing host function with canary bytes;
    ``nested`` (if set) runs in place of ``call_contract``."""

    def __init__(self, nested=None):
        self.logs: list[bytes] = []
        self.nested = nested

    def get_input(self) -> bytes:
        return CANARY

    def get_caller(self) -> bytes:
        return CANARY + CANARY[:4]

    def storage_get(self, key: bytes) -> bytes | None:
        return CANARY

    def storage_set(self, key: bytes, value: bytes) -> None:
        pass

    def call_contract(self, address: bytes, method: str, argument: bytes) -> bytes:
        if self.nested is not None:
            return self.nested()
        return CANARY


@pytest.fixture(scope="module")
def templates():
    cache = CodeCache()
    return {
        "writer": cache.prepare(_writer_blob()),
        "reader": cache.prepare(compile_source(READER_SOURCE, "wasm").code),
        "outer": cache.prepare(compile_source(OUTER_SOURCE, "wasm").code),
    }


def pooled_buffers(size):
    """This thread's free pooled buffers of one size."""
    return list(getattr(interpreter._pool, "free", {}).get(size, ()))


def _run(template, method, host=None):
    return WasmInstance(template, host or CanaryHost(), pooled=True).run(method)


def _write(templates, path, mode):
    try:
        _run(templates["writer"], f"{mode}_{path}")
    except Exception:  # noqa: BLE001 — the trap mode traps on purpose
        assert mode == "trap"
    else:
        assert mode == "ok"


def _assert_pool_clean(size):
    buffers = pooled_buffers(size)
    assert buffers, "nothing was returned to the pool"
    for buffer in buffers:
        assert len(buffer) == size
        assert buffer[:] == bytes(size), "a released buffer kept dirty bytes"


def _in_fresh_thread(fn):
    """Each scenario gets an empty per-thread pool."""
    errors = []

    def target():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    if errors:
        raise errors[0]


@pytest.mark.parametrize("mode", ["ok", "trap"])
@pytest.mark.parametrize("path", PATHS)
def test_next_contract_reads_zero(templates, path, mode):
    size = templates["writer"].memory_bytes

    def scenario():
        _write(templates, path, mode)
        _assert_pool_clean(size)
        result = _run(templates["reader"], "scan")
        assert result.output == bytes(8), f"{path}/{mode} bled into the next call"
        _assert_pool_clean(size)

    _in_fresh_thread(scenario)


@pytest.mark.parametrize("mode", ["ok", "trap"])
@pytest.mark.parametrize("path", PATHS)
def test_nested_call_reads_zero(templates, path, mode):
    # The outer call holds one buffer; the writer and then the reader
    # run nested inside it, the reader on the buffer the writer released.
    size = templates["writer"].memory_bytes
    seen = []

    def nested():
        if not seen:
            seen.append(None)
            _write(templates, path, mode)
            return b""
        seen.append(_run(templates["reader"], "scan").output)
        return b""

    def scenario():
        outer = templates["outer"]
        _run(outer, "nest", CanaryHost(nested))
        _run(outer, "nest", CanaryHost(nested))
        assert seen[1] == bytes(8), f"{path}/{mode} bled into a nested call"
        _assert_pool_clean(size)

    _in_fresh_thread(scenario)


def test_pool_off_allocates_fresh_memory():
    template = ModuleTemplate(prepare_module(_writer_blob()))

    def scenario():
        instance = WasmInstance(template, CanaryHost(), pooled=False)
        instance.run("ok_store64")
        assert pooled_buffers(template.memory_bytes) == []
        assert instance.memory[HIGH:HIGH + 8] != bytes(8)

    _in_fresh_thread(scenario)


def test_pooled_buffer_is_reused(templates):
    size = templates["reader"].memory_bytes

    def scenario():
        first = WasmInstance(templates["reader"], CanaryHost(), pooled=True)
        buffer = first.memory
        first.run("scan")
        pool = pooled_buffers(size)
        assert len(pool) == 1 and pool[0] is buffer
        second = WasmInstance(templates["reader"], CanaryHost(), pooled=True)
        assert second.memory is buffer
        second.run("scan")

    _in_fresh_thread(scenario)


@pytest.mark.parametrize("chunk", [interpreter._CHUNK, 5])
def test_threads_share_templates_and_keep_their_own_pools(monkeypatch, chunk):
    # Gateway query threads run calls beside the block producer: the
    # templates (and their first-call translations, whole or chunk by
    # chunk) are shared, the pooled memories are not.
    monkeypatch.setattr(interpreter, "_CHUNK", chunk)
    cache = CodeCache()
    writer = cache.prepare(_writer_blob())
    reader = cache.prepare(compile_source(READER_SOURCE, "wasm").code)
    size = writer.memory_bytes
    barrier = threading.Barrier(4)
    errors = []

    def worker():
        try:
            barrier.wait(timeout=30)
            for path in PATHS * 2:
                _write({"writer": writer}, path, "ok")
                assert _run(reader, "scan").output == bytes(8)
            _assert_pool_clean(size)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
