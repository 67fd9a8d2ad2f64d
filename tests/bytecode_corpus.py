"""Adversarial bytecode corpus for the Pass 3 confidentiality flow analyzer.

Each builder returns a deterministic, source-less :class:`ContractArtifact`
whose *bytecode* moves data read from a ``ccle:``-keyed storage slot into
a public sink.  Since no CWScript source exists for any of them, only the
bytecode-level flow pass (``repro.analysis.bytecode_flow``) can reject
them at deploy admission — that is exactly what they pin down:

- ``wasm_secret_to_public_storage``  -> ``flow_storage_set``
- ``wasm_secret_to_event``           -> ``flow_log``
- ``wasm_secret_to_revert_payload``  -> ``flow_revert``
- ``wasm_leak_via_superinstruction`` -> ``flow_log`` (the leak path runs
  through OPT4 superinstructions: GETGET/GETCONST after fusion)
- ``evm_leak_via_jump_table``        -> ``flow_log`` (the leak sits in a
  subroutine reached through push-return-label jump-table dispatch, so
  detection requires value-set JUMP resolution)
- ``wasm_secret_as_storage_key``     -> ``flow_storage_set`` (a constant
  value written under a key made of the secret bytes: storage keys sit
  in plaintext in the host store)
- ``evm_secret_as_storage_key``      -> ``flow_storage_set`` (the same
  key-byte leak through ``HOSTCALL``)

The encoded artifacts are checked in under
``tests/fixtures/analysis/bytecode/`` so CI can drive
``repro analyze --bytecode`` over them without importing this module.
Regenerate with ``PYTHONPATH=src python tests/bytecode_corpus.py``;
``test_bytecode_flow.py`` asserts the disk bytes match the builders.
"""

from __future__ import annotations

import pathlib

from repro.lang.compiler import ContractArtifact
from repro.vm import host as host_mod
from repro.vm.evm import opcodes as evm_op
from repro.vm.host import HOST_INDEX
from repro.vm.wasm import opcodes as op
from repro.vm.wasm.module import (
    DataSegment,
    Function,
    Module,
    encode_module,
    validate_module,
)

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures" / "analysis" / "bytecode"

#: Storage key the CCLe compiler would emit for a confidential field.
SECRET_KEY = b"ccle:balance"
#: A public mirror key: writing secret bytes under it is the leak.
PUBLIC_KEY = b"pub:balance"

#: Minimal CCLe schema with one confidential field.  Deploying any corpus
#: artifact alongside it arms the ``ccle:`` prefix in the Pass 3 policy.
SCHEMA_SOURCE = """\
attribute "confidential";

table Vault {
  owner: string;
  balance: long(confidential);
}
root_type Vault;
"""

_KEY_PTR = 64  # secret key bytes live here (data segment)
_PUB_PTR = 96  # public mirror key bytes
_BUF_PTR = 160  # storage_get destination buffer
_BUF_CAP = 32
_VAL_PTR = 224  # a constant (zeroed) value buffer
_VAL_LEN = 8


def _wasm_artifact(code, nlocals=0, method="leak", extra_data=()):
    module = Module(
        memory_pages=1,
        hosts=list(host_mod.HOST_TABLE),
        functions=[Function(nparams=0, nlocals=nlocals, nresults=0, code=code)],
        exports={method: 0},
        data=[DataSegment(offset=_KEY_PTR, data=SECRET_KEY), *extra_data],
    )
    validate_module(module)
    return ContractArtifact(
        target="wasm", code=encode_module(module), methods=(method,)
    )


def _get_secret():
    """storage_get(SECRET_KEY, -> _BUF_PTR); leaves nothing on the stack."""
    return [
        (op.CONST, _KEY_PTR, 0),
        (op.CONST, len(SECRET_KEY), 0),
        (op.CONST, _BUF_PTR, 0),
        (op.CONST, _BUF_CAP, 0),
        (op.CALL_HOST, HOST_INDEX["storage_get"], 0),
        (op.DROP, 0, 0),
    ]


def wasm_secret_to_public_storage() -> ContractArtifact:
    """Secret bytes re-written under a non-``ccle:`` storage key."""
    code = [
        *_get_secret(),
        (op.CONST, _PUB_PTR, 0),
        (op.CONST, len(PUBLIC_KEY), 0),
        (op.CONST, _BUF_PTR, 0),
        (op.CONST, _BUF_CAP, 0),
        (op.CALL_HOST, HOST_INDEX["storage_set"], 0),
        (op.RETURN, 0, 0),
    ]
    return _wasm_artifact(
        code, extra_data=(DataSegment(offset=_PUB_PTR, data=PUBLIC_KEY),)
    )


def wasm_secret_as_storage_key() -> ContractArtifact:
    """A constant value written under a key made of the secret bytes."""
    code = [
        *_get_secret(),
        (op.CONST, _BUF_PTR, 0),
        (op.CONST, _BUF_CAP, 0),
        (op.CONST, _VAL_PTR, 0),
        (op.CONST, _VAL_LEN, 0),
        (op.CALL_HOST, HOST_INDEX["storage_set"], 0),
        (op.RETURN, 0, 0),
    ]
    return _wasm_artifact(code)


def wasm_secret_to_event() -> ContractArtifact:
    """Secret bytes emitted through the plaintext event log."""
    code = [
        *_get_secret(),
        (op.CONST, _BUF_PTR, 0),
        (op.CONST, _BUF_CAP, 0),
        (op.CALL_HOST, HOST_INDEX["log"], 0),
        (op.RETURN, 0, 0),
    ]
    return _wasm_artifact(code)


def wasm_secret_to_revert_payload() -> ContractArtifact:
    """Secret bytes carried out as the abort (revert) message."""
    code = [
        *_get_secret(),
        (op.CONST, _BUF_PTR, 0),
        (op.CONST, _BUF_CAP, 0),
        (op.CALL_HOST, HOST_INDEX["abort"], 0),
        (op.UNREACHABLE, 0, 0),
    ]
    return _wasm_artifact(code)


def wasm_leak_via_superinstruction() -> ContractArtifact:
    """Same event leak, but routed through locals so ``fuse_module``
    collapses the argument set-up into GETGET/GETCONST superinstructions.
    An analyzer that only modelled the base ISA would lose the pointer
    values (and therefore the key classification) at the fusion seams.
    """
    code = [
        (op.CONST, _KEY_PTR, 0),
        (op.LOCAL_SET, 0, 0),
        (op.CONST, len(SECRET_KEY), 0),
        (op.LOCAL_SET, 1, 0),
        (op.CONST, _BUF_PTR, 0),
        (op.LOCAL_SET, 2, 0),
        (op.LOCAL_GET, 0, 0),  # fuses with the next get -> GETGET
        (op.LOCAL_GET, 1, 0),
        (op.LOCAL_GET, 2, 0),  # fuses with the const -> GETCONST
        (op.CONST, _BUF_CAP, 0),
        (op.CALL_HOST, HOST_INDEX["storage_get"], 0),
        (op.DROP, 0, 0),
        (op.LOCAL_GET, 2, 0),  # fuses with the const -> GETCONST
        (op.CONST, _BUF_CAP, 0),
        (op.CALL_HOST, HOST_INDEX["log"], 0),
        (op.RETURN, 0, 0),
    ]
    return _wasm_artifact(code, nlocals=3)


def _evm_assemble(items):
    """Tiny two-pass assembler.

    ``items`` mixes raw opcode ints with ``("push", payload)``,
    ``("pushl", label)`` (PUSH1 of a label offset; code must stay under
    256 bytes) and ``("label", name)`` markers (zero-width).
    Returns ``(code, labels)``.
    """
    labels: dict[str, int] = {}
    off = 0
    for it in items:
        if isinstance(it, tuple):
            kind = it[0]
            if kind == "label":
                labels[it[1]] = off
            elif kind == "push":
                off += 1 + len(it[1])
            elif kind == "pushl":
                off += 2
            else:  # pragma: no cover - builder bug
                raise ValueError(f"bad assembler item {it!r}")
        else:
            off += 1
    out = bytearray()
    for it in items:
        if isinstance(it, tuple):
            kind = it[0]
            if kind == "label":
                continue
            if kind == "push":
                payload = it[1]
                out.append(evm_op.PUSH1 + len(payload) - 1)
                out.extend(payload)
            else:  # pushl
                out.append(evm_op.PUSH1)
                out.append(labels[it[1]])
        else:
            out.append(it)
    assert len(out) == off
    return bytes(out), labels


def evm_leak_via_jump_table() -> ContractArtifact:
    """Both entry points dispatch into one shared subroutine through
    pushed return labels; the subroutine reads the secret and logs it,
    then returns via a value-set JUMP (two possible targets).  Detecting
    this requires the analyzer to resolve jump-table dispatch instead of
    bailing on computed jumps.
    """
    key32 = SECRET_KEY.ljust(32, b"\x00")
    prog = [
        # entry "get" at offset 0
        ("pushl", "ret_get"),
        ("pushl", "sub"),
        evm_op.JUMP,
        ("label", "ret_get"),
        evm_op.JUMPDEST,
        evm_op.STOP,
        # entry "probe"
        ("label", "probe"),
        ("pushl", "ret_probe"),
        ("pushl", "sub"),
        evm_op.JUMP,
        ("label", "ret_probe"),
        evm_op.JUMPDEST,
        evm_op.STOP,
        # shared subroutine: the leak lives here
        ("label", "sub"),
        evm_op.JUMPDEST,
        ("push", key32),  # mem[0:32] = secret key bytes
        ("push", b"\x00"),
        evm_op.MSTORE,
        ("push", b"\x00"),  # storage_get(key=0, klen, dst=64, cap=32)
        ("push", bytes([len(SECRET_KEY)])),
        ("push", bytes([64])),
        ("push", bytes([32])),
        ("push", bytes([HOST_INDEX["storage_get"]])),
        evm_op.HOSTCALL,
        evm_op.POP,
        ("push", bytes([64])),  # log(ptr=64, len=32)
        ("push", bytes([32])),
        ("push", bytes([HOST_INDEX["log"]])),
        evm_op.HOSTCALL,
        evm_op.JUMP,  # return through the caller-pushed label
    ]
    code, labels = _evm_assemble(prog)
    entries = {"get": 0, "probe": labels["probe"]}
    return ContractArtifact(
        target="evm", code=code, methods=tuple(sorted(entries)), entries=entries
    )


def evm_secret_as_storage_key() -> ContractArtifact:
    """The EVM twin of :func:`wasm_secret_as_storage_key`: the secret
    read into memory becomes the key of a ``storage_set`` whose value is
    a constant."""
    prog = [
        ("push", SECRET_KEY.ljust(32, b"\x00")),  # mem[0:32] = secret key
        ("push", b"\x00"),
        evm_op.MSTORE,
        ("push", b"\x00"),  # storage_get(key=0, klen, dst=64, cap=32)
        ("push", bytes([len(SECRET_KEY)])),
        ("push", bytes([64])),
        ("push", bytes([32])),
        ("push", bytes([HOST_INDEX["storage_get"]])),
        evm_op.HOSTCALL,
        evm_op.POP,
        ("push", bytes([64])),  # storage_set(key=64, 32, val=128, 8)
        ("push", bytes([32])),
        ("push", bytes([128])),
        ("push", bytes([8])),
        ("push", bytes([HOST_INDEX["storage_set"]])),
        evm_op.HOSTCALL,
        evm_op.STOP,
    ]
    code, _labels = _evm_assemble(prog)
    entries = {"leak": 0}
    return ContractArtifact(
        target="evm", code=code, methods=tuple(entries), entries=entries
    )


#: fixture stem -> (builder, expected deploy-blocking finding kind)
CORPUS = {
    "wasm_secret_to_public_storage": (wasm_secret_to_public_storage, "flow_storage_set"),
    "wasm_secret_to_event": (wasm_secret_to_event, "flow_log"),
    "wasm_secret_to_revert_payload": (wasm_secret_to_revert_payload, "flow_revert"),
    "wasm_leak_via_superinstruction": (wasm_leak_via_superinstruction, "flow_log"),
    "evm_leak_via_jump_table": (evm_leak_via_jump_table, "flow_log"),
    "wasm_secret_as_storage_key": (wasm_secret_as_storage_key, "flow_storage_set"),
    "evm_secret_as_storage_key": (evm_secret_as_storage_key, "flow_storage_set"),
}


def write_corpus(directory: pathlib.Path = FIXTURE_DIR) -> list[pathlib.Path]:
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for stem, (builder, _kind) in sorted(CORPUS.items()):
        path = directory / f"{stem}.bin"
        path.write_bytes(builder().encode())
        written.append(path)
    (directory / "vault.ccle").write_text(SCHEMA_SOURCE)
    return written


if __name__ == "__main__":
    for path in write_corpus():
        print(path)
