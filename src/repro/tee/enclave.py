"""Software enclave with an enforced trust boundary.

The simulation preserves the *semantics* SGX gives CONFIDE:

- **Isolation** — an enclave's trusted state is only reachable while
  executing inside an ecall; access from outside raises
  :class:`~repro.errors.EnclaveError` (the moral equivalent of an EPCM
  fault).
- **Measurement** — the enclave's code identity is hashed at creation;
  attestation quotes and sealing keys bind to it.
- **Costed transitions** — every ecall/ocall and every directed-buffer
  copy accrues modeled cycles in the platform's accountant, so TEE
  overhead shows up in benchmark output.
- **Paging** — enclave heap allocations go through the platform's shared
  EPC allocator.

Subclasses implement trusted behaviour as ``ecall_*`` methods and
register untrusted services as ocall handlers.  Whatever an enclave
keeps between ecalls lives in :attr:`Enclave.trusted`, never on a host
object: the CS enclave, for one, keeps its whole runtime there (keys,
SDM, metadata and code caches, contract records) and hands the host
only counts, written into ledgers the host passed in at construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.crypto.entropy import token_hex
from repro.crypto.hashes import sha256
from repro.crypto.hkdf import hkdf
from repro.crypto.keys import KeyPair
from repro.errors import EnclaveError
from repro.obs.trace import get_tracer
from repro.tee.edl import Direction, EdlInterface, EdlParam
from repro.tee.epc import EPC_USABLE_BYTES, EpcAllocator
from repro.tee.transitions import DEFAULT_COST_MODEL, CostModel, CycleAccountant


@dataclass(frozen=True)
class Measurement:
    """MRENCLAVE-like identity: hash of the enclave code."""

    digest: bytes

    @classmethod
    def of(cls, name: str, version: int, code_ids: tuple[str, ...]) -> "Measurement":
        material = f"{name}|{version}|{','.join(sorted(code_ids))}".encode()
        return cls(sha256(material))

    def hex(self) -> str:
        return self.digest.hex()


class Platform:
    """A machine that can host enclaves.

    Owns the hardware root of trust (a fused key, simulated by a keypair),
    the EPC budget shared by all enclaves on the machine, and the cycle
    accountant that benchmarks read.
    """

    def __init__(
        self,
        platform_id: str | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        epc_budget_bytes: int = EPC_USABLE_BYTES,
        use_memory_pool: bool = True,
    ):
        self.platform_id = platform_id or token_hex(8)
        self.accountant = CycleAccountant(model=cost_model)
        self.epc = EpcAllocator(
            self.accountant, budget_bytes=epc_budget_bytes, use_pool=use_memory_pool
        )
        # Simulates the fused hardware key pair used for quote signing.
        self.root_key = KeyPair.from_seed(b"platform-root:" + self.platform_id.encode())
        # Platform-local secret for local attestation / sealing derivation.
        self._local_secret = hkdf(
            self.root_key.private.to_bytes(32, "big"), info=b"platform-local-secret"
        )
        self.enclaves: list["Enclave"] = []

    def sealing_key(self, measurement: Measurement) -> bytes:
        """MRENCLAVE-policy sealing key (stable across enclave restarts)."""
        return hkdf(self._local_secret, info=b"seal:" + measurement.digest, length=16)

    def local_report_key(self) -> bytes:
        """Shared key enclaves on this platform use for local attestation."""
        return hkdf(self._local_secret, info=b"local-report", length=16)

    def local_channel_key(self, m_a: "Measurement", m_b: "Measurement") -> bytes:
        """Secure-channel key between two enclaves on this platform.

        Models the local-attestation-established channel the KM enclave
        uses to provision secrets into the CS enclave (paper §5.1); only
        code running on this platform can derive it, and it binds both
        endpoint measurements.
        """
        pair = b"|".join(sorted((m_a.digest, m_b.digest)))
        return hkdf(self._local_secret, info=b"local-channel:" + pair, length=16)


class Enclave:
    """Base class for simulated enclaves.

    Subclasses define trusted entry points as methods named ``ecall_<x>``;
    those are auto-registered. Untrusted services are attached with
    :meth:`register_ocall`. State that must stay confidential belongs in
    attributes accessed through :attr:`trusted`, which enforces the
    boundary.
    """

    VERSION = 1

    def __init__(self, platform: Platform, name: str):
        self.platform = platform
        self.name = name
        self._interface = EdlInterface()
        # Per-thread call depth models SGX TCS entries: each thread enters
        # through its own Thread Control Structure, so one thread sitting
        # in an ocall must not strip another thread's in-enclave status.
        self._tls = threading.local()
        self._destroyed = False
        self._trusted_state: dict = {}
        self._heap_handles: list[int] = []
        code_ids = tuple(m for m in dir(self) if m.startswith("ecall_"))
        self.measurement = Measurement.of(type(self).__name__, self.VERSION, code_ids)
        for method_name in code_ids:
            short = method_name[len("ecall_") :]
            self._interface.declare_ecall(short, getattr(self, method_name))
        platform.enclaves.append(self)

    # -- trust boundary ----------------------------------------------------

    @property
    def _depth(self) -> int:
        return getattr(self._tls, "depth", 0)

    @_depth.setter
    def _depth(self, value: int) -> None:
        self._tls.depth = value

    @property
    def trusted(self) -> dict:
        """Trusted in-enclave state; raises if accessed from outside."""
        if self._depth == 0:
            raise EnclaveError(
                f"attempt to read trusted memory of enclave '{self.name}' "
                "from outside an ecall"
            )
        return self._trusted_state

    @property
    def inside(self) -> bool:
        return self._depth > 0

    # -- lifecycle ----------------------------------------------------------

    def destroy(self) -> None:
        """Tear down the enclave, releasing its EPC pages (paper §5.3:
        the KM enclave 'will be destroyed as soon as possible to release
        EPC memory')."""
        if self._destroyed:
            return
        for handle in self._heap_handles:
            self.platform.epc.free(handle)
        self._heap_handles.clear()
        self._trusted_state.clear()
        self._destroyed = True

    @property
    def destroyed(self) -> bool:
        return self._destroyed

    # -- boundary calls -----------------------------------------------------

    def ecall(self, name: str, *args, user_check: bool = False):
        """Enter the enclave through a declared ecall."""
        if self._destroyed:
            raise EnclaveError(f"enclave '{self.name}' is destroyed")
        func = self._interface.ecalls.get(name)
        if func is None:
            raise EnclaveError(f"unknown ecall '{name}' on enclave '{self.name}'")
        accountant = self.platform.accountant
        accountant.charge_ecall()
        if not user_check:
            copied = sum(
                len(a) for a in args if isinstance(a, (bytes, bytearray, memoryview))
            )
            accountant.charge_copy(copied)
            args = tuple(
                bytes(a) if isinstance(a, (bytearray, memoryview)) else a for a in args
            )
        self._depth += 1
        try:
            tracer = get_tracer()
            if not tracer.enabled:
                return func.handler(*args)
            with tracer.span("tee.ecall", op=name) as span:
                cycles_before = accountant.cycles
                try:
                    return func.handler(*args)
                finally:
                    span.set("cycles", accountant.cycles - cycles_before)
        finally:
            self._depth -= 1

    def register_ocall(self, name: str, handler, params: tuple[EdlParam, ...] = ()):
        """Attach an untrusted service the enclave may call out to."""
        self._interface.declare_ocall(name, handler, params)

    def ocall(self, name: str, *args, user_check: bool = False):
        """Call out of the enclave to a registered untrusted handler."""
        if self._depth == 0:
            raise EnclaveError("ocall issued while not executing inside the enclave")
        func = self._interface.ocalls.get(name)
        if func is None:
            raise EnclaveError(f"unknown ocall '{name}' on enclave '{self.name}'")
        accountant = self.platform.accountant
        accountant.charge_ocall()
        if not user_check:
            copied = func.copied_sizes(args) if func.params else sum(
                len(a) for a in args if isinstance(a, (bytes, bytearray, memoryview))
            )
            accountant.charge_copy(copied)
        # Leave the enclave for the duration of the untrusted handler.
        depth, self._depth = self._depth, 0
        try:
            tracer = get_tracer()
            if not tracer.enabled:
                return func.handler(*args)
            with tracer.span("tee.ocall", op=name) as span:
                cycles_before = accountant.cycles
                try:
                    return func.handler(*args)
                finally:
                    span.set("cycles", accountant.cycles - cycles_before)
        finally:
            self._depth = depth

    # -- heap ----------------------------------------------------------------

    def malloc(self, size_bytes: int) -> int:
        """Allocate enclave heap (EPC-backed); returns a handle."""
        handle = self.platform.epc.allocate(size_bytes)
        self._heap_handles.append(handle)
        return handle

    def free(self, handle: int) -> None:
        self.platform.epc.free(handle)
        self._heap_handles.remove(handle)

    def touch(self, handle: int) -> None:
        self.platform.epc.touch(handle)

    # -- sealing ---------------------------------------------------------------

    def seal(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Seal data to this enclave identity on this platform."""
        from repro.crypto.gcm import AesGcm, deterministic_nonce

        key = self.platform.sealing_key(self.measurement)
        nonce = deterministic_nonce(key, plaintext, aad)
        return nonce + AesGcm(key).seal(nonce, plaintext, aad)

    def unseal(self, sealed: bytes, aad: bytes = b"") -> bytes:
        from repro.crypto.gcm import NONCE_SIZE, AesGcm

        if len(sealed) < NONCE_SIZE:
            raise EnclaveError("sealed blob too short")
        key = self.platform.sealing_key(self.measurement)
        nonce, body = sealed[:NONCE_SIZE], sealed[NONCE_SIZE:]
        return AesGcm(key).open(nonce, body, aad)


_ = Direction  # re-exported for annotation convenience
