"""CONFIDE-VM instruction set.

A Wasm-derived, stack-based, 64-bit instruction set with structured
control flow lowered to explicit jumps (the shape a baseline interpreter
executes after a single decoding pass over the Wasm binary).

Two instruction-set levels exist, reproducing the paper's OPT4
("instruction optimization ... reducing about 50% instructions which
helps to shrink the jumping table ... by aggregating the instructions
into one block, we gain about 17% performance improvement"):

- the **full** set — what the compiler emits;
- the **optimized** set — after :func:`repro.vm.wasm.optimizer.fuse`
  aggregates hot instruction pairs into superinstructions, so fewer
  instructions execute (and pay fuel).
"""

from __future__ import annotations

# --- core instruction opcodes (immediates noted in comments) ---------------
NOP = 0
CONST = 1        # a = signed 64-bit immediate
DROP = 2
LOCAL_GET = 3    # a = local index
LOCAL_SET = 4    # a = local index
LOCAL_TEE = 5    # a = local index
JMP = 6          # a = absolute instruction index
JMP_IF = 7       # a = target; jump when popped value != 0
JMP_IFZ = 8      # a = target; jump when popped value == 0
CALL = 9         # a = function index
CALL_HOST = 10   # a = host import index
RETURN = 11
UNREACHABLE = 12
SELECT = 13      # pop c, b, a; push a if c != 0 else b

ADD = 16
SUB = 17
MUL = 18
DIV_S = 19
DIV_U = 20
REM_S = 21
REM_U = 22
AND = 23
OR = 24
XOR = 25
SHL = 26
SHR_U = 27
SHR_S = 28

EQZ = 32
EQ = 33
NE = 34
LT_S = 35
LT_U = 36
GT_S = 37
GT_U = 38
LE_S = 39
LE_U = 40
GE_S = 41
GE_U = 42

LOAD8_U = 48     # a = static offset added to popped address
LOAD16_U = 49
LOAD32_U = 50
LOAD64 = 51
STORE8 = 52
STORE16 = 53
STORE32 = 54
STORE64 = 55
MEMCOPY = 56     # pop len, src, dst
MEMFILL = 57     # pop len, byte, dst
MEMSIZE = 58     # push memory size in bytes

# --- superinstructions (OPT4) ----------------------------------------------
GETGET = 64      # a, b = local indices; push both
GETCONST = 65    # a = local index, b = const; push both
ADDI = 66        # a = const; top += a
GETADD = 67      # a = local index; top = top + local[a]
MOVL = 68        # a = src local, b = dst local
CMP_BR = 69      # a = target, b = comparison kind; pop rhs, lhs, branch if true
LOAD8_LOCAL = 70  # a = local index, b = static offset; push mem[local[a]+b]
INCL = 71        # a = local index, b = const; local[a] += b

# comparison kinds for CMP_BR (indexes into the interpreter's branch logic)
CMP_EQ = 0
CMP_NE = 1
CMP_LT_S = 2
CMP_LT_U = 3
CMP_GT_S = 4
CMP_GT_U = 5
CMP_LE_S = 6
CMP_LE_U = 7
CMP_GE_S = 8
CMP_GE_U = 9

_CMP_FROM_OP = {
    EQ: CMP_EQ,
    NE: CMP_NE,
    LT_S: CMP_LT_S,
    LT_U: CMP_LT_U,
    GT_S: CMP_GT_S,
    GT_U: CMP_GT_U,
    LE_S: CMP_LE_S,
    LE_U: CMP_LE_U,
    GE_S: CMP_GE_S,
    GE_U: CMP_GE_U,
}

_CMP_INVERT = {
    CMP_EQ: CMP_NE,
    CMP_NE: CMP_EQ,
    CMP_LT_S: CMP_GE_S,
    CMP_LT_U: CMP_GE_U,
    CMP_GT_S: CMP_LE_S,
    CMP_GT_U: CMP_LE_U,
    CMP_LE_S: CMP_GT_S,
    CMP_LE_U: CMP_GT_U,
    CMP_GE_S: CMP_LT_S,
    CMP_GE_U: CMP_LT_U,
}

NAMES: dict[int, str] = {
    value: name
    for name, value in globals().items()
    if isinstance(value, int) and name.isupper() and not name.startswith(("CMP_", "_"))
}
NAMES[CMP_BR] = "CMP_BR"  # excluded above with the CMP_* kind constants

# Number of immediates each opcode carries in the binary encoding.
IMMEDIATES: dict[int, int] = {}
for _op in NAMES:
    IMMEDIATES[_op] = 0
for _op in (
    CONST, LOCAL_GET, LOCAL_SET, LOCAL_TEE, JMP, JMP_IF, JMP_IFZ, CALL,
    CALL_HOST, LOAD8_U, LOAD16_U, LOAD32_U, LOAD64, STORE8, STORE16,
    STORE32, STORE64, ADDI, GETADD,
):
    IMMEDIATES[_op] = 1
for _op in (GETGET, GETCONST, MOVL, CMP_BR, LOAD8_LOCAL, INCL):
    IMMEDIATES[_op] = 2

# Opcodes whose first immediate is a jump target (needs remapping on fusion).
BRANCH_OPS = frozenset({JMP, JMP_IF, JMP_IFZ, CMP_BR})

# Signed immediate slots (encoded with signed LEB128).
SIGNED_IMMEDIATE_OPS = frozenset({CONST, ADDI, INCL, GETCONST})


def comparison_kind(op: int) -> int | None:
    """CMP_BR kind for a comparison opcode, or None."""
    return _CMP_FROM_OP.get(op)


def invert_comparison(kind: int) -> int:
    return _CMP_INVERT[kind]
