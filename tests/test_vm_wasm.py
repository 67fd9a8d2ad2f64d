"""CONFIDE-VM tests: instruction semantics, traps, module format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MockHost
from repro.errors import TrapError, VMError
from repro.vm.host import HOST_TABLE
from repro.vm.wasm import opcodes as op
from repro.vm.wasm.interpreter import WasmInstance
from repro.vm.wasm.module import (
    DataSegment,
    Function,
    Module,
    decode_module,
    decode_sleb,
    decode_uleb,
    encode_module,
    encode_sleb,
    encode_uleb,
    instr,
    validate_module,
)

_M = (1 << 64) - 1


def run_ops(code, nparams=0, nlocals=0, args=None, memory_pages=1,
            data=(), max_steps=100_000):
    func = Function(nparams, nlocals, 1, list(code))
    module = Module(
        functions=[func],
        hosts=list(HOST_TABLE),
        exports={"f": 0},
        memory_pages=memory_pages,
        data=list(data),
    )
    validate_module(module)
    instance = WasmInstance(module, MockHost(), max_steps=max_steps)
    return instance._call(0, list(args or []))


def expr(ops):
    """Append RETURN to an op list."""
    return list(ops) + [instr(op.RETURN)]


class TestArithmetic:
    def test_add_wraps(self):
        result = run_ops(expr([instr(op.CONST, -1), instr(op.CONST, 2), instr(op.ADD)]))
        assert result == 1

    def test_sub_underflow_wraps(self):
        result = run_ops(expr([instr(op.CONST, 0), instr(op.CONST, 1), instr(op.SUB)]))
        assert result == _M

    def test_mul(self):
        result = run_ops(expr([instr(op.CONST, 1 << 40), instr(op.CONST, 1 << 30),
                               instr(op.MUL)]))
        assert result == (1 << 70) & _M

    def test_div_s_truncates_toward_zero(self):
        result = run_ops(expr([instr(op.CONST, -7), instr(op.CONST, 2),
                               instr(op.DIV_S)]))
        assert result == (-3) & _M

    def test_rem_s_sign_follows_dividend(self):
        result = run_ops(expr([instr(op.CONST, -7), instr(op.CONST, 2),
                               instr(op.REM_S)]))
        assert result == (-1) & _M

    def test_div_u(self):
        result = run_ops(expr([instr(op.CONST, -1), instr(op.CONST, 2),
                               instr(op.DIV_U)]))
        assert result == _M // 2

    def test_div_by_zero_traps(self):
        with pytest.raises(TrapError):
            run_ops(expr([instr(op.CONST, 1), instr(op.CONST, 0), instr(op.DIV_S)]))
        with pytest.raises(TrapError):
            run_ops(expr([instr(op.CONST, 1), instr(op.CONST, 0), instr(op.REM_U)]))

    def test_shifts_mask_to_63(self):
        result = run_ops(expr([instr(op.CONST, 1), instr(op.CONST, 65), instr(op.SHL)]))
        assert result == 2  # shift amount 65 & 63 == 1

    def test_shr_s_extends_sign(self):
        result = run_ops(expr([instr(op.CONST, -8), instr(op.CONST, 1),
                               instr(op.SHR_S)]))
        assert result == (-4) & _M

    def test_signed_comparison(self):
        result = run_ops(expr([instr(op.CONST, -1), instr(op.CONST, 1),
                               instr(op.LT_S)]))
        assert result == 1

    def test_unsigned_comparison(self):
        result = run_ops(expr([instr(op.CONST, -1), instr(op.CONST, 1),
                               instr(op.LT_U)]))
        assert result == 0  # 2^64-1 is huge unsigned

    def test_eqz(self):
        assert run_ops(expr([instr(op.CONST, 0), instr(op.EQZ)])) == 1
        assert run_ops(expr([instr(op.CONST, 7), instr(op.EQZ)])) == 0

    def test_select(self):
        code = expr([instr(op.CONST, 10), instr(op.CONST, 20), instr(op.CONST, 1),
                     instr(op.SELECT)])
        assert run_ops(code) == 10
        code = expr([instr(op.CONST, 10), instr(op.CONST, 20), instr(op.CONST, 0),
                     instr(op.SELECT)])
        assert run_ops(code) == 20


class TestMemory:
    def test_store_load_roundtrip(self):
        code = expr([
            instr(op.CONST, 100), instr(op.CONST, 0x1234567890ABCDEF),
            instr(op.STORE64),
            instr(op.CONST, 100), instr(op.LOAD64),
        ])
        assert run_ops(code) == 0x1234567890ABCDEF

    def test_big_endian_layout(self):
        code = expr([
            instr(op.CONST, 0), instr(op.CONST, 0x0102030405060708),
            instr(op.STORE64),
            instr(op.CONST, 0), instr(op.LOAD8_U),
        ])
        assert run_ops(code) == 0x01  # most-significant byte first

    def test_load16_load32(self):
        code = expr([
            instr(op.CONST, 0), instr(op.CONST, 0xAABBCCDD), instr(op.STORE32),
            instr(op.CONST, 0), instr(op.LOAD16_U),
        ])
        assert run_ops(code) == 0xAABB

    def test_oob_load_traps(self):
        with pytest.raises(TrapError):
            run_ops(expr([instr(op.CONST, 1 << 20), instr(op.LOAD8_U)]))

    def test_oob_store_traps(self):
        with pytest.raises(TrapError):
            run_ops(expr([instr(op.CONST, 65536), instr(op.CONST, 1),
                          instr(op.STORE8)]))

    def test_memcopy(self):
        code = expr([
            instr(op.CONST, 0), instr(op.CONST, 0xAB), instr(op.STORE8),
            instr(op.CONST, 10), instr(op.CONST, 0), instr(op.CONST, 1),
            instr(op.MEMCOPY),
            instr(op.CONST, 10), instr(op.LOAD8_U),
        ])
        assert run_ops(code) == 0xAB

    def test_memfill(self):
        code = expr([
            instr(op.CONST, 5), instr(op.CONST, 0x7F), instr(op.CONST, 3),
            instr(op.MEMFILL),
            instr(op.CONST, 6), instr(op.LOAD8_U),
        ])
        assert run_ops(code) == 0x7F

    def test_memsize(self):
        assert run_ops(expr([instr(op.MEMSIZE)]), memory_pages=2) == 2 * 65536

    def test_data_segment_initializes_memory(self):
        code = expr([instr(op.CONST, 4), instr(op.LOAD8_U)])
        result = run_ops(code, data=[DataSegment(4, b"Z")])
        assert result == ord("Z")


class TestControl:
    def test_loop_sum(self):
        # locals: 0 = n (param), 1 = acc, 2 = i
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
        assert run_ops(code, nparams=1, nlocals=2, args=[10]) == 45

    def test_fuel_exhaustion(self):
        code = [instr(op.JMP, 0)]
        func = Function(0, 0, 0, code)
        module = Module(functions=[func], hosts=[], exports={"f": 0})
        with pytest.raises(TrapError, match="fuel"):
            WasmInstance(module, MockHost(), max_steps=1000)._call(0, [])

    def test_unreachable_traps(self):
        with pytest.raises(TrapError, match="unreachable"):
            run_ops([instr(op.UNREACHABLE)])

    def test_long_expression_chain(self):
        # Left-deep arithmetic thousands of operators long stays one
        # straight run of code and evaluates exactly.
        code = [instr(op.CONST, 1)]
        for i in range(2000):
            code += [instr(op.CONST, i), instr(op.ADD), instr(op.CONST, 3),
                     instr(op.MUL)]
        expected = 1
        for i in range(2000):
            expected = ((expected + i) * 3) & _M
        assert run_ops(expr(code)) == expected

    def test_local_tee(self):
        code = expr([instr(op.CONST, 9), instr(op.LOCAL_TEE, 0)])
        assert run_ops(code, nlocals=1) == 9

    def test_call_between_functions(self):
        callee = Function(2, 0, 1, [
            instr(op.LOCAL_GET, 0), instr(op.LOCAL_GET, 1), instr(op.ADD),
            instr(op.RETURN),
        ])
        caller = Function(0, 0, 1, [
            instr(op.CONST, 3), instr(op.CONST, 4), instr(op.CALL, 1),
            instr(op.RETURN),
        ])
        module = Module(functions=[caller, callee], hosts=[], exports={"main": 0})
        validate_module(module)
        assert WasmInstance(module, MockHost())._call(0, []) == 7

    def test_stack_underflow_is_trap(self):
        with pytest.raises(TrapError):
            run_ops([instr(op.ADD), instr(op.RETURN)])

    def test_infinite_recursion_guarded(self):
        func = Function(0, 0, 0, [instr(op.CALL, 0), instr(op.RETURN)])
        module = Module(functions=[func], hosts=[], exports={"f": 0})
        with pytest.raises(TrapError):
            WasmInstance(module, MockHost())._call(0, [])


class TestModuleFormat:
    def test_roundtrip(self):
        func = Function(1, 2, 1, [
            instr(op.CONST, -42), instr(op.LOCAL_GET, 0), instr(op.ADD),
            instr(op.RETURN),
        ])
        module = Module(
            functions=[func],
            hosts=list(HOST_TABLE),
            exports={"main": 0},
            data=[DataSegment(16, b"hello")],
            memory_pages=4,
        )
        decoded = decode_module(encode_module(module))
        assert decoded.functions[0].code == func.code
        assert decoded.exports == {"main": 0}
        assert decoded.memory_pages == 4
        assert decoded.data[0].data == b"hello"
        assert [h.name for h in decoded.hosts] == [h.name for h in HOST_TABLE]

    def test_bad_magic(self):
        with pytest.raises(VMError):
            decode_module(b"XXXX\x01")

    def test_superinstructions_not_serializable(self):
        func = Function(0, 0, 1, [instr(op.GETGET, 0, 0), instr(op.RETURN)])
        module = Module(functions=[func], exports={"f": 0})
        with pytest.raises(VMError):
            encode_module(module)

    def test_validator_rejects_bad_local(self):
        func = Function(0, 1, 1, [instr(op.LOCAL_GET, 5), instr(op.RETURN)])
        with pytest.raises(VMError):
            validate_module(Module(functions=[func], exports={"f": 0}))

    def test_validator_rejects_bad_jump(self):
        func = Function(0, 0, 1, [instr(op.JMP, 99), instr(op.RETURN)])
        with pytest.raises(VMError):
            validate_module(Module(functions=[func], exports={"f": 0}))

    def test_validator_rejects_missing_terminator(self):
        func = Function(0, 0, 1, [instr(op.CONST, 1)])
        with pytest.raises(VMError):
            validate_module(Module(functions=[func], exports={"f": 0}))

    def test_validator_rejects_bad_export(self):
        with pytest.raises(VMError):
            validate_module(Module(functions=[], exports={"ghost": 0}))

    def test_validator_rejects_bad_host_index(self):
        func = Function(0, 0, 0, [instr(op.CALL_HOST, 99), instr(op.RETURN)])
        with pytest.raises(VMError):
            validate_module(Module(functions=[func], exports={"f": 0}))

    def test_validator_rejects_negative_offset(self):
        for code in ([instr(op.CONST, 9), instr(op.LOAD8_U, -1), instr(op.RETURN)],
                     [instr(op.LOAD8_LOCAL, 0, -2), instr(op.RETURN)]):
            func = Function(0, 1, 1, code)
            with pytest.raises(VMError, match="negative offset"):
                validate_module(Module(functions=[func], exports={"f": 0}))

    def test_data_segment_beyond_memory(self):
        module = Module(
            functions=[Function(0, 0, 0, [instr(op.RETURN)])],
            exports={"f": 0},
            data=[DataSegment(65536 - 1, b"xy")],
            memory_pages=1,
        )
        with pytest.raises(VMError):
            validate_module(module)


class TestLeb128:
    @given(value=st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=60, deadline=None)
    def test_uleb_roundtrip(self, value):
        decoded, _ = decode_uleb(encode_uleb(value), 0)
        assert decoded == value

    @given(value=st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    @settings(max_examples=60, deadline=None)
    def test_sleb_roundtrip(self, value):
        decoded, _ = decode_sleb(encode_sleb(value), 0)
        assert decoded == value

    def test_uleb_rejects_negative(self):
        with pytest.raises(VMError):
            encode_uleb(-1)

    def test_truncated_leb(self):
        with pytest.raises(VMError):
            decode_uleb(b"\x80", 0)


class TestTranslationMemory:
    def test_large_function_translates_in_bounded_memory(self):
        # One deployed function of ~5,400 instructions, every part of it
        # executed: translated whole, compile() would peak near 27 MB;
        # chunk by chunk it peaks at a few MB whatever the size.
        import tracemalloc

        from repro.vm.wasm.code_cache import CodeCache

        code = []
        for k in range(300):
            skip = len(code) + 18
            code += [
                instr(op.LOCAL_GET, 0), instr(op.CONST, k + 1), instr(op.ADD),
                instr(op.LOCAL_SET, 0),
                instr(op.CONST, 0), instr(op.LOCAL_GET, 0),
                instr(op.STORE64, 8 * (k % 64)),
                instr(op.CONST, 0), instr(op.LOAD64, 8 * (k % 64)),
                instr(op.LOCAL_GET, 1), instr(op.XOR), instr(op.LOCAL_SET, 1),
                instr(op.LOCAL_GET, 1), instr(op.JMP_IFZ, skip),
                instr(op.LOCAL_GET, 2), instr(op.CONST, 1), instr(op.ADD),
                instr(op.LOCAL_SET, 2),
            ]
        code += [instr(op.LOCAL_GET, 0), instr(op.LOCAL_GET, 1), instr(op.ADD),
                 instr(op.LOCAL_GET, 2), instr(op.ADD), instr(op.RETURN)]
        module = Module(functions=[Function(0, 3, 1, code)],
                        hosts=list(HOST_TABLE), exports={"f": 0},
                        memory_pages=1, data=[])
        total = mixed = nonzero = 0
        for k in range(300):
            total += k + 1
            mixed ^= total
            nonzero += mixed != 0
        template = CodeCache().prepare(encode_module(module))
        tracemalloc.start()
        try:
            result = WasmInstance(template, MockHost()).run("f")
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert int.from_bytes(result.output, "big") == total + mixed + nonzero
        assert peak < 8 * 1024 * 1024, f"translation peaked at {peak} bytes"
