"""Superinstruction fusion (OPT4) tests: semantics preserved, dispatch
count reduced, jump targets remapped; plus the decoded-module cache."""

import threading

from conftest import MockHost
from repro.lang import compile_source
from repro.vm.host import HOST_TABLE
from repro.vm.wasm import opcodes as op
from repro.vm.wasm.code_cache import CodeCache, prepare_module
from repro.vm.wasm.interpreter import WasmInstance
from repro.vm.wasm.module import Function, Module, encode_module, instr, validate_module
from repro.vm.wasm.optimizer import dispatch_footprint, fuse_function, fuse_module
from repro.workloads.synthetic import synthetic_workloads


def loop_module():
    # sum 0..n-1 with compare+branch and increment patterns (fusable).
    code = [
        instr(op.CONST, 0), instr(op.LOCAL_SET, 1),
        instr(op.CONST, 0), instr(op.LOCAL_SET, 2),
        instr(op.LOCAL_GET, 2), instr(op.LOCAL_GET, 0), instr(op.LT_U),
        instr(op.JMP_IFZ, 17),
        instr(op.LOCAL_GET, 1), instr(op.LOCAL_GET, 2), instr(op.ADD),
        instr(op.LOCAL_SET, 1),
        instr(op.LOCAL_GET, 2), instr(op.CONST, 1), instr(op.ADD),
        instr(op.LOCAL_SET, 2),
        instr(op.JMP, 4),
        instr(op.LOCAL_GET, 1), instr(op.RETURN),
    ]
    return Module(
        functions=[Function(1, 2, 1, code)], hosts=list(HOST_TABLE),
        exports={"sum": 0},
    )


def run(module, args):
    instance = WasmInstance(module, MockHost())
    value = instance._call(0, args)
    return value, instance._max_steps - instance.steps_left


class TestEquivalence:
    def test_loop_result_identical(self):
        module = loop_module()
        fused = fuse_module(module)
        for n in (0, 1, 7, 100):
            assert run(module, [n])[0] == run(fused, [n])[0]

    def test_fused_executes_fewer_instructions(self):
        module = loop_module()
        fused = fuse_module(module)
        _, plain_steps = run(module, [500])
        _, fused_steps = run(fused, [500])
        assert fused_steps < plain_steps * 0.8

    def test_fused_code_is_shorter(self):
        module = loop_module()
        fused = fuse_module(module)
        assert len(fused.functions[0].code) < len(module.functions[0].code)

    def test_fused_module_validates(self):
        validate_module(fuse_module(loop_module()))


class TestPatterns:
    def _fused_ops(self, code):
        func = fuse_function(Function(0, 4, 1, code))
        return [c[0] for c in func.code]

    def test_getget(self):
        ops = self._fused_ops([
            instr(op.LOCAL_GET, 0), instr(op.LOCAL_GET, 1),
            instr(op.ADD), instr(op.RETURN),
        ])
        assert op.GETGET in ops

    def test_cmp_br_from_jmp_if(self):
        code = [
            instr(op.LOCAL_GET, 0), instr(op.LOCAL_GET, 1), instr(op.LT_U),
            instr(op.JMP_IF, 5), instr(op.NOP),
            instr(op.CONST, 1), instr(op.RETURN),
        ]
        ops = self._fused_ops(code)
        assert op.CMP_BR in ops

    def test_cmp_br_inverts_for_jmp_ifz(self):
        code = [
            instr(op.LOCAL_GET, 0), instr(op.LOCAL_GET, 1), instr(op.EQ),
            instr(op.JMP_IFZ, 5), instr(op.NOP),
            instr(op.CONST, 1), instr(op.RETURN),
        ]
        func = fuse_function(Function(0, 2, 1, code))
        cmp_instrs = [c for c in func.code if c[0] == op.CMP_BR]
        assert cmp_instrs and cmp_instrs[0][2] == op.CMP_NE

    def test_movl(self):
        ops = self._fused_ops([
            instr(op.LOCAL_GET, 0), instr(op.LOCAL_SET, 1),
            instr(op.CONST, 0), instr(op.RETURN),
        ])
        assert op.MOVL in ops

    def test_addi(self):
        ops = self._fused_ops([
            instr(op.LOCAL_GET, 0), instr(op.CONST, 5), instr(op.ADD),
            instr(op.RETURN),
        ])
        # LOCAL_GET+CONST fuses first (left-to-right scan) into GETCONST.
        assert op.GETCONST in ops

    def test_no_fusion_across_jump_target(self):
        # Instruction 1 is a loop-back target: fusion must keep the
        # semantics "jump executes exactly the original tail" — the
        # target may map onto a fused pair only if that pair begins at
        # the original target instruction.
        code = [
            instr(op.NOP),            # 0
            instr(op.LOCAL_GET, 0),   # 1 <- target
            instr(op.CONST, 5),       # 2
            instr(op.ADD),            # 3
            instr(op.LOCAL_SET, 0),   # 4
            instr(op.LOCAL_GET, 0),   # 5
            instr(op.CONST, 100),     # 6
            instr(op.LT_U),           # 7
            instr(op.JMP_IF, 1),      # 8
            instr(op.LOCAL_GET, 0),   # 9
            instr(op.RETURN),         # 10
        ]
        func = Function(1, 0, 1, code)
        module = Module(functions=[func], hosts=[], exports={"f": 0})
        fused = fuse_module(module)
        assert run(module, [3])[0] == run(fused, [3])[0] == 103
        for opcode, target, _b in fused.functions[0].code:
            if opcode in op.BRANCH_OPS:
                assert 0 <= target < len(fused.functions[0].code)

    def test_jump_targets_remapped_correctly(self):
        module = loop_module()
        fused = fuse_module(module)
        for opcode, target, _b in fused.functions[0].code:
            if opcode in op.BRANCH_OPS:
                assert 0 <= target < len(fused.functions[0].code)


class TestDispatchFootprint:
    def test_footprint_reported(self):
        module = loop_module()
        assert dispatch_footprint(module) > 0

    def test_fusion_changes_opcode_mix(self):
        module = loop_module()
        fused = fuse_module(module)
        plain_ops = {c[0] for c in module.functions[0].code}
        fused_ops = {c[0] for c in fused.functions[0].code}
        assert fused_ops - plain_ops  # new superinstructions present


class TestCodeCache:
    def test_hit_and_miss_accounting(self):
        blob = encode_module(loop_module())
        cache = CodeCache(capacity=4)
        first = cache.prepare(blob)
        second = cache.prepare(blob)
        assert first is second
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_eviction(self):
        cache = CodeCache(capacity=1)
        blob_a = encode_module(loop_module())
        module_b = loop_module()
        module_b.exports = {"other": 0}
        blob_b = encode_module(module_b)
        cache.prepare(blob_a)
        cache.prepare(blob_b)
        assert cache.stats.evictions == 1
        assert len(cache) == 1

    def test_fuse_flag_respected(self):
        blob = encode_module(loop_module())
        fused = CodeCache(fuse=True).prepare(blob)
        plain = CodeCache(fuse=False).prepare(blob)
        fused_ops = {c[0] for c in fused.functions[0].code}
        plain_ops = {c[0] for c in plain.functions[0].code}
        assert op.CMP_BR in fused_ops
        assert op.CMP_BR not in plain_ops

    def test_prepare_module_validates(self):
        blob = encode_module(loop_module())
        module = prepare_module(blob)
        assert module.exports == {"sum": 0}

    def test_bodies_translate_lazily_once_per_cache(self):
        # Every CWScript module starts with the same prelude functions:
        # one cache translates each distinct body once, on first call;
        # another cache (another engine) translates its own.
        workloads = synthetic_workloads()
        blobs = [compile_source(workloads[name].source, "wasm").code
                 for name in ("crypto-hash", "string-concat")]
        cache = CodeCache()
        first, second = (cache.prepare(blob) for blob in blobs)
        assert first.compiled == [None] * len(first.functions)
        alloc = first.compile(0)
        assert second.compile(0).__code__ is alloc.__code__
        assert sum(fn is not None for fn in second.compiled) == 1
        other = CodeCache().prepare(blobs[0])
        assert other.compile(0).__code__ is not alloc.__code__

    def test_code_cache_hammer(self):
        workloads = synthetic_workloads()
        blobs = [
            compile_source(workloads[name].source, "wasm").code
            for name in ("crypto-hash", "string-concat", "json-parsing")
        ]
        cache = CodeCache(capacity=8)
        errors = []

        def worker():
            try:
                for i in range(30):
                    blob = blobs[i % len(blobs)]
                    module = cache.prepare(blob)
                    assert module is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) == len(blobs)
        total = 8 * 30
        assert cache.stats.hits + cache.stats.misses == total
        # Each distinct blob missed at least once; racing double-prepares
        # are allowed, lost lookups are not.
        assert len(blobs) <= cache.stats.misses < total
