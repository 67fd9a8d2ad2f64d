"""Host interface shared by CONFIDE-VM and the EVM baseline.

Contracts interact with the outside world only through host functions
("chain API").  Both virtual machines expose the same table, so one
contract source compiles to either target and the engines (public or
confidential) plug in by implementing :class:`HostContext`:

====================  =========================================  =======
name                  signature (all i64)                        result
====================  =========================================  =======
input_size            ()                                         size
input_read            (dst, off, len)                            copied
storage_get           (key_ptr, key_len, dst_ptr, dst_cap)       len|-1
storage_set           (key_ptr, key_len, val_ptr, val_len)       —
sha256                (ptr, len, dst)                            —
keccak256             (ptr, len, dst)                            —
output                (ptr, len)                                 —
log                   (ptr, len)                                 —
call_contract         (addr,alen, m,mlen, arg,arglen, dst,cap)   len|-1
caller                (dst)  writes 20-byte caller address       —
abort                 (ptr, len)                                 never
====================  =========================================  =======

In the Confidential-Engine, ``storage_get``/``storage_set`` route through
the Secure Data Module (D-Protocol encryption + ocall accounting); in the
Public-Engine they hit the KV store directly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.errors import ContractError, TrapError


class HostContext(ABC):
    """What the chain provides to an executing contract."""

    @abstractmethod
    def get_input(self) -> bytes:
        """The call argument blob (calldata)."""

    @abstractmethod
    def get_caller(self) -> bytes:
        """20-byte address of the immediate caller."""

    @abstractmethod
    def storage_get(self, key: bytes) -> bytes | None:
        """Read contract state."""

    @abstractmethod
    def storage_set(self, key: bytes, value: bytes) -> None:
        """Write contract state."""

    @abstractmethod
    def call_contract(self, address: bytes, method: str, argument: bytes) -> bytes:
        """Synchronous cross-contract call; returns the callee's output."""

    def emit_log(self, data: bytes) -> None:
        """Record an event (default: collected on the context)."""
        self.logs.append(data)

    logs: list[bytes]


@dataclass
class ExecutionResult:
    """Outcome of one contract invocation."""

    output: bytes = b""
    logs: list[bytes] = field(default_factory=list)
    instructions: int = 0
    gas_used: int = 0
    host_calls: dict[str, int] = field(default_factory=dict)
    storage_reads: int = 0
    storage_writes: int = 0


@dataclass(frozen=True)
class HostImport:
    """Declaration of one host function in a module's import table."""

    name: str
    nparams: int
    nresults: int


# Canonical host table; index order is the wire-level host function index.
HOST_TABLE: tuple[HostImport, ...] = (
    HostImport("input_size", 0, 1),
    HostImport("input_read", 3, 1),
    HostImport("storage_get", 4, 1),
    HostImport("storage_set", 4, 0),
    HostImport("sha256", 3, 0),
    HostImport("keccak256", 3, 0),
    HostImport("output", 2, 0),
    HostImport("log", 2, 0),
    HostImport("call_contract", 8, 1),
    HostImport("caller", 1, 0),
    HostImport("abort", 2, 0),
    # Audited declassification marker (appended: earlier indices are
    # wire-stable).  At runtime it is a no-op; the bytecode-level
    # confidentiality analyzer treats the named memory region as
    # deliberately made public (mirroring source-level ``declassify``).
    HostImport("declassify", 2, 0),
)

HOST_INDEX: dict[str, int] = {imp.name: i for i, imp in enumerate(HOST_TABLE)}


class AbortExecution(ContractError):
    """Raised by the `abort` host function; carries the contract message."""


class HostBridge:
    """Binds a :class:`HostContext` to VM memory accessors.

    Both interpreters instantiate one bridge per execution; the bridge
    implements the canonical table against raw memory (a bytearray) and
    records per-call statistics.
    """

    def __init__(
        self,
        context: HostContext,
        memory: bytearray,
        result: ExecutionResult,
        expandable: bool = False,
    ):
        self.context = context
        self.memory = memory
        self.result = result
        # EVM memory grows on demand (zero-filled); CONFIDE-VM memory is a
        # fixed-size linear memory, so out-of-bounds host access traps.
        self.expandable = expandable
        self._input: bytes | None = None
        # End of the highest byte a host function wrote: a pooled
        # linear memory is re-zeroed up to here on release.
        self.dirty = 0

    def _ensure(self, end: int) -> None:
        if end > len(self.memory):
            if not self.expandable:
                raise TrapError(
                    f"host access out of bounds: end={end} mem={len(self.memory)}"
                )
            self.memory.extend(bytes(end - len(self.memory)))

    def _mem_read(self, ptr: int, length: int) -> bytes:
        if ptr < 0 or length < 0:
            raise TrapError(f"host read with negative ptr/len: {ptr}/{length}")
        self._ensure(ptr + length)
        return bytes(self.memory[ptr : ptr + length])

    def _mem_write(self, ptr: int, data: bytes) -> None:
        if ptr < 0:
            raise TrapError(f"host write with negative ptr: {ptr}")
        end = ptr + len(data)
        self._ensure(end)
        self.memory[ptr:end] = data
        if end > self.dirty:
            self.dirty = end

    def _count(self, name: str) -> None:
        calls = self.result.host_calls
        calls[name] = calls.get(name, 0) + 1

    @property
    def input(self) -> bytes:
        if self._input is None:
            self._input = self.context.get_input()
        return self._input

    # -- the host functions, in HOST_TABLE order ---------------------------

    def input_size(self) -> int:
        self._count("input_size")
        return len(self.input)

    def input_read(self, dst: int, off: int, length: int) -> int:
        self._count("input_read")
        chunk = self.input[off : off + length]
        self._mem_write(dst, chunk)
        return len(chunk)

    def storage_get(self, key_ptr: int, key_len: int, dst: int, cap: int) -> int:
        self._count("storage_get")
        self.result.storage_reads += 1
        key = self._mem_read(key_ptr, key_len)
        value = self.context.storage_get(key)
        if value is None:
            return -1
        if len(value) > cap:
            raise TrapError(f"storage_get destination too small ({cap} < {len(value)})")
        self._mem_write(dst, value)
        return len(value)

    def storage_set(self, key_ptr: int, key_len: int, val_ptr: int, val_len: int) -> None:
        self._count("storage_set")
        self.result.storage_writes += 1
        key = self._mem_read(key_ptr, key_len)
        value = self._mem_read(val_ptr, val_len)
        self.context.storage_set(key, value)

    def sha256(self, ptr: int, length: int, dst: int) -> None:
        self._count("sha256")
        from repro.crypto.hashes import sha256 as _sha256

        self._mem_write(dst, _sha256(self._mem_read(ptr, length)))

    def keccak256(self, ptr: int, length: int, dst: int) -> None:
        self._count("keccak256")
        from repro.crypto.hashes import keccak256 as _keccak

        self._mem_write(dst, _keccak(self._mem_read(ptr, length)))

    def output(self, ptr: int, length: int) -> None:
        self._count("output")
        self.result.output = self._mem_read(ptr, length)

    def log(self, ptr: int, length: int) -> None:
        self._count("log")
        data = self._mem_read(ptr, length)
        self.result.logs.append(data)
        self.context.emit_log(data)

    def call_contract(
        self,
        addr_ptr: int,
        addr_len: int,
        method_ptr: int,
        method_len: int,
        arg_ptr: int,
        arg_len: int,
        dst: int,
        cap: int,
    ) -> int:
        self._count("call_contract")
        address = self._mem_read(addr_ptr, addr_len)
        method = self._mem_read(method_ptr, method_len).decode()
        argument = self._mem_read(arg_ptr, arg_len)
        ret = self.context.call_contract(address, method, argument)
        if len(ret) > cap:
            raise TrapError(f"call_contract return too large ({len(ret)} > {cap})")
        self._mem_write(dst, ret)
        return len(ret)

    def caller(self, dst: int) -> None:
        self._count("caller")
        self._mem_write(dst, self.context.get_caller())

    def abort(self, ptr: int, length: int) -> None:
        self._count("abort")
        message = self._mem_read(ptr, length).decode(errors="replace")
        raise AbortExecution(message)

    def declassify(self, ptr: int, length: int) -> None:
        """Audit marker: the region [ptr, ptr+length) is deliberately
        public.  Validates the range like any host access, else no-op."""
        self._count("declassify")
        self._mem_read(ptr, length)

    def dispatch_table(self) -> list:
        """Host callables indexed per HOST_TABLE."""
        return [getattr(self, imp.name) for imp in HOST_TABLE]
