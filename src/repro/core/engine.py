"""The contract execution engines.

- :class:`PublicEngine` — executes public (TYPE=0) transactions against
  plaintext KV state; this is the platform's stock engine that CONFIDE
  plugs in *next to*.
- :class:`ConfidentialEngine` — the paper's contribution, split at the
  trust boundary.  The host keeps the KV store and the ocall handlers
  that serve it, the key lifecycle, thin wrappers around the CS
  enclave's ecalls, and the counters the enclave writes into.  The
  engine proper — the pre-verification cache, the VM call path, the
  Secure Data Module, the contract records, ``sk_tx`` and ``k_states``
  — is a runtime that only the :class:`CSEnclave` holds (Figure 6),
  built when the KM enclave provisions keys over the local-attestation
  channel.  It reaches storage only through the enclave's ocalls.
  Everything a confidential transaction touches is decrypted only
  inside the enclave; states leave it AES-GCM-sealed under
  ``k_states``; receipts leave it sealed under the transaction's
  one-time ``k_tx``.

Both engines execute each transaction against a write overlay that only
commits on success, collect read/write sets (for the modeled
parallel-lane schedule of Fig. 11), and record the per-operation
timings behind Table 1.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.ccle.parser import parse_schema
from repro.ccle.schema import Schema
from repro.chain.transaction import (
    ADDRESS_SIZE,
    UPGRADE_METHOD,
    RawTransaction,
    Transaction,
    contract_address,
    parse_deploy_args,
)
from repro.core import t_protocol
from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.d_protocol import StateAad, StateCipher
from repro.core.kmm import KMEnclave
from repro.core.preprocessor import PreProcessor, TxMetadata
from repro.core.receipts import (
    ACCESS_WRAP_AAD,
    ACL_METHOD,
    ANALYSIS_BYTECODE_ONLY,
    ANALYSIS_SOURCE_BYTECODE,
    KIND_ANALYSIS,
    KIND_BAD_SIGNATURE,
    KIND_REVERT,
    KIND_UNDECRYPTABLE,
    Receipt,
)
from repro.core.roles import ROLE_ACL_METHOD, ROLE_RELEASE_AAD
from repro.core.sdm import SecureDataModule
from repro.core.stats import (
    ARTIFACT_VERIFY,
    BYTECODE_FLOW,
    CONTRACT_CALL,
    DEPLOY_REJECT,
    DEPLOY_REJECT_BYTECODE,
    DEPLOY_REJECT_SOURCE,
    GET_STORAGE,
    OperationStats,
    SET_STORAGE,
    TAINT_ANALYZE,
    TX_DECRYPT,
    TX_VERIFY,
)
from repro.crypto import ecies
from repro.crypto.ecc import decode_point
from repro.crypto.gcm import NONCE_SIZE, AesGcm
from repro.crypto.hashes import sha256
from repro.crypto.keys import KeyPair
from repro.errors import (
    AnalysisError,
    ChainError,
    ContractError,
    ProtocolError,
    ReproError,
    VMError,
)
from repro.lang.compiler import ContractArtifact
from repro.obs.trace import get_tracer
from repro.storage import rlp
from repro.storage.kv import KVStore
from repro.tee.enclave import Enclave, Measurement, Platform
from repro.vm import runner
from repro.vm.host import HostContext
from repro.vm.wasm.code_cache import CacheStats, CodeCache

_CODE_PREFIX = b"c:"
_STATE_PREFIX = b"s:"
_NONCE_PREFIX = b"n:"
_CCLE_KEY_PREFIX = b"ccle:"
_LOCAL_AAD = b"confide/kmm/local-provision"
_SEALED_KEYS_KEY = b"km:sealed-keys"
#: compiled-code templates the code cache keeps (OPT1)
_CODE_CACHE_CAPACITY = 64
#: deepest cross-contract call chain a transaction may build
_MAX_CALL_DEPTH = 64
#: public pre-verification verdicts kept for execute, oldest dropped
#: first (a dropped verdict costs one re-verification)
_VERDICT_CAPACITY = 10_000
#: confidential pre-verification metadata kept in the CS enclave, oldest
#: dropped first (a dropped entry costs one full envelope open)
_TX_META_CAPACITY = 10_000


@dataclass(frozen=True)
class ExecutionOutcome:
    """Everything the platform needs about one executed transaction."""

    receipt: Receipt
    sealed_receipt: bytes | None
    duration: float
    read_set: frozenset[bytes]
    write_set: frozenset[bytes]


@dataclass
class _DeployedContract:
    address: bytes
    owner: bytes
    artifact: ContractArtifact
    schema: Schema | None = None
    schema_source: str = ""
    security_version: int = 1

    @functools.cached_property
    def code_hash(self) -> bytes:
        """Key of this code's template in the code cache, hashed once."""
        return sha256(self.artifact.code)


@dataclass
class _TxScope:
    """Per-transaction execution scope: overlay + read/write sets."""

    overlay: dict[bytes, bytes] = field(default_factory=dict)
    read_set: set[bytes] = field(default_factory=set)
    write_set: set[bytes] = field(default_factory=set)
    logs: list[bytes] = field(default_factory=list)
    instructions: int = 0
    gas_used: int = 0
    storage_reads: int = 0
    storage_writes: int = 0
    # Nonce bumps are buffered here (not written through) and applied
    # with the scope, ahead of the overlay.
    nonce_updates: dict[bytes, bytes] = field(default_factory=dict)
    success: bool = False
    # Set on deploy/upgrade: which static-analysis mode admitted the
    # artifact ("source+bytecode" / "bytecode-only"); surfaced on the
    # receipt.
    analysis_mode: str = ""


def _state_key(address: bytes, key: bytes) -> bytes:
    return _STATE_PREFIX + address + b"/" + key


def _aad_for(record: _DeployedContract) -> StateAad:
    return StateAad(record.address, record.owner, record.security_version)


class _CallContext(HostContext):
    """Host context for one contract frame."""

    def __init__(self, engine: "_BaseEngine", record: _DeployedContract,
                 caller: bytes, argument: bytes, scope: _TxScope, depth: int):
        self._engine = engine
        self._record = record
        self._caller = caller
        self._argument = argument
        self._scope = scope
        self._depth = depth
        self.logs = scope.logs

    def get_input(self) -> bytes:
        return self._argument

    def get_caller(self) -> bytes:
        return self._caller

    def storage_get(self, key: bytes) -> bytes | None:
        # Telemetry records only sizes — never keys or values, which may
        # be (derived from) application plaintext.
        with get_tracer().span("storage.get", key_bytes=len(key)) as span:
            started = time.perf_counter()
            full_key = _state_key(self._record.address, key)
            scope = self._scope
            scope.read_set.add(full_key)
            scope.storage_reads += 1
            if full_key in scope.overlay:
                value = scope.overlay[full_key]
            else:
                value = self._engine._backend_get(self._record, key, full_key)
            elapsed = time.perf_counter() - started
            self._engine._record_inner(GET_STORAGE, elapsed)
            span.set("value_bytes", len(value) if value is not None else -1)
        return value

    def storage_set(self, key: bytes, value: bytes) -> None:
        with get_tracer().span("storage.set", key_bytes=len(key),
                               value_bytes=len(value)):
            started = time.perf_counter()
            full_key = _state_key(self._record.address, key)
            scope = self._scope
            scope.write_set.add(full_key)
            scope.storage_writes += 1
            scope.overlay[full_key] = bytes(value)
            elapsed = time.perf_counter() - started
            self._engine._record_inner(SET_STORAGE, elapsed)

    def call_contract(self, address: bytes, method: str, argument: bytes) -> bytes:
        return self._engine._call(
            address, method, argument,
            caller=self._record.address, scope=self._scope, depth=self._depth + 1,
        )

    def emit_log(self, data: bytes) -> None:
        # The bridge records logs on its per-VM ExecutionResult; the
        # transaction-level receipt collects them here.
        self._scope.logs.append(data)


class _BaseEngine:
    """Machinery shared by the public engine and the CS enclave's runtime."""

    # Whether this engine's receipts (output, revert payload) travel in
    # plaintext.  Drives the bytecode-flow pass's sink model: in the
    # Confidential-Engine receipts are sealed under k_tx, so return data
    # and revert payloads are not public sinks at deploy admission.
    receipts_public = True

    def __init__(self, config: EngineConfig, stats: OperationStats,
                 code_cache_stats: CacheStats):
        self.config = config
        self.stats = stats
        self.code_cache_stats = code_cache_stats
        self.contracts: dict[bytes, _DeployedContract] = {}
        self.code_cache: CodeCache | None = None
        if config.use_code_cache:
            self.code_cache = CodeCache(
                capacity=_CODE_CACHE_CAPACITY,
                fuse=config.use_instruction_fusion,
                stats=code_cache_stats,
            )
        # Exclusive-time tracking for CONTRACT_CALL (children and storage
        # spans are subtracted from the enclosing call's duration).
        # Thread-local: every thread sharing the engine keeps its own
        # nesting, so one thread's accounting never leaks into another's.
        self._tls = threading.local()

    @property
    def _excluded_stack(self) -> list[float]:
        stack = getattr(self._tls, "excluded_stack", None)
        if stack is None:
            stack = self._tls.excluded_stack = []
        return stack

    # Storage backend, per subclass: _kv_get(key), _kv_set(key, value),
    # _backend_get(record, key, full_key), _commit_state(scope),
    # _persist_code(record) and _load_record(address).

    # -- shared helpers ---------------------------------------------------------

    def _charge_vm_memory(self, record: _DeployedContract) -> None:
        """Hook: account enclave memory for one VM instantiation."""

    def _admit_artifact(
        self,
        artifact: ContractArtifact,
        schema: Schema | None,
        source: str,
    ) -> str:
        """Deploy admission: re-establish compile-time guarantees on an
        untrusted artifact (always), run the confidentiality taint
        analysis when the deploy carries source (§4: the ``confidential``
        promise, enforced on the code), and run the bytecode-level
        confidentiality-flow pass on the artifact either way — a
        sourceless blob gossiped by a byzantine peer gets leak analysis
        too.  Returns the analysis mode that admitted the artifact
        (``source+bytecode`` / ``bytecode-only``); raises
        :class:`AnalysisError` (carrying that mode in
        ``exc.analysis_mode``) on rejection.
        """
        from repro.analysis.bytecode_flow import flow_verify_artifact
        from repro.analysis.taint import analyze_source
        from repro.analysis.verifier import verify_artifact

        mode = ANALYSIS_SOURCE_BYTECODE if source else ANALYSIS_BYTECODE_ONLY

        def reject(exc: AnalysisError) -> None:
            exc.analysis_mode = mode
            self.stats.record(DEPLOY_REJECT, 0.0)
            self.stats.record(
                DEPLOY_REJECT_SOURCE if source else DEPLOY_REJECT_BYTECODE,
                0.0,
            )

        started = time.perf_counter()
        try:
            verify_artifact(artifact)
        except AnalysisError as exc:
            reject(exc)
            raise
        finally:
            self.stats.record(ARTIFACT_VERIFY, time.perf_counter() - started)
        if source:
            started = time.perf_counter()
            try:
                try:
                    report = analyze_source(source, schema=schema)
                except AnalysisError:
                    raise
                except ReproError as exc:
                    raise AnalysisError(f"source does not analyze: {exc}")
                if not report.clean:
                    first = report.findings[0]
                    extra = len(report.findings) - 1
                    suffix = f" (+{extra} more)" if extra else ""
                    raise AnalysisError(
                        f"confidentiality leak at {first.location()}: "
                        f"{first.message}{suffix}",
                        tuple(report.findings),
                    )
            except AnalysisError as exc:
                reject(exc)
                raise
            finally:
                self.stats.record(TAINT_ANALYZE,
                                  time.perf_counter() - started)
        started = time.perf_counter()
        try:
            flow_verify_artifact(artifact, schema=schema,
                                 public_outputs=self.receipts_public)
        except AnalysisError as exc:
            reject(exc)
            raise
        finally:
            self.stats.record(BYTECODE_FLOW, time.perf_counter() - started)
        return mode

    def _upgrade(self, raw: RawTransaction, scope: _TxScope) -> bytes:
        """Replace a contract's code, bumping its security version.

        Only the owner may upgrade (the paper's rule-update path:
        "Updating the rules should be done through upgrading the
        contract").  In the confidential engine all existing state is
        re-sealed under the new version's AAD, so a host restoring the
        *old* code blob afterwards cannot read the new state — code
        downgrade and state rollback detect each other.
        """
        record = self._get_record(raw.contract)
        if raw.sender != record.owner:
            raise ContractError("only the contract owner can upgrade")
        code_blob, _vm, schema_source, source = parse_deploy_args(raw.args)
        artifact = ContractArtifact.decode(code_blob)
        schema = parse_schema(schema_source) if schema_source else None
        scope.analysis_mode = self._admit_artifact(artifact, schema, source)
        upgraded = _DeployedContract(
            record.address, record.owner, artifact, schema, schema_source,
            record.security_version + 1,
        )
        self._migrate_state(record, upgraded)
        self.contracts[record.address] = upgraded
        self._persist_code(upgraded)
        return record.address

    def _migrate_state(self, old: _DeployedContract,
                       new: _DeployedContract) -> None:
        """Hook: carry contract state across a security-version bump."""

    def _record_inner(self, op: str, elapsed: float) -> None:
        self.stats.record(op, elapsed)
        if self._excluded_stack:
            self._excluded_stack[-1] += elapsed

    def _get_record(self, address: bytes) -> _DeployedContract:
        record = self.contracts.get(address)
        if record is not None and self.config.use_code_cache:
            return record
        # Without the code cache (OPT1 off) every call re-fetches the
        # code blob from storage, re-applies the D-Protocol on it (in
        # the confidential engine) and re-decodes the artifact.
        loaded = self._load_record(address)
        if loaded is None:
            if record is not None:
                return record  # deployed in this very transaction
            raise ChainError(f"no contract at {address.hex()}")
        self.contracts[address] = loaded
        return loaded

    def _call(self, address: bytes, method: str, argument: bytes, *,
              caller: bytes, scope: _TxScope, depth: int) -> bytes:
        if depth > _MAX_CALL_DEPTH:
            raise VMError("cross-contract call depth exceeded")
        with get_tracer().span("vm.call", method=method, depth=depth,
                               input_bytes=len(argument)) as span:
            started = time.perf_counter()
            self._excluded_stack.append(0.0)
            try:
                record = self._get_record(address)
                self._charge_vm_memory(record)
                context = _CallContext(self, record, caller, argument, scope, depth)
                result = runner.execute(
                    record.artifact,
                    method,
                    context,
                    code_cache=self.code_cache,
                    code_hash=record.code_hash,
                    fuse=self.config.use_instruction_fusion,
                    memory_pool=self.config.use_memory_pool,
                    max_steps=self.config.max_steps,
                    gas_limit=self.config.gas_limit,
                )
                scope.instructions += result.instructions
                scope.gas_used += result.gas_used
                span.set("instructions", result.instructions)
                return result.output
            finally:
                excluded = self._excluded_stack.pop()
                total = time.perf_counter() - started
                self.stats.record(CONTRACT_CALL, max(total - excluded, 0.0))
                if self._excluded_stack:
                    self._excluded_stack[-1] += total

    def _check_and_bump_nonce(self, raw: RawTransaction,
                              scope: _TxScope) -> None:
        key = _NONCE_PREFIX + raw.sender
        stored = self._kv_get(key)
        last = rlp.decode_int(stored) if stored else -1
        if stored is not None and raw.nonce <= last:
            raise ChainError(
                f"nonce replay: {raw.nonce} <= {last} for {raw.sender.hex()}"
            )
        # Buffered, not written through: the bump lands with the scope's
        # commit (it still persists when the transaction reverts —
        # replay protection survives failed executions).
        scope.nonce_updates[key] = rlp.encode_int(raw.nonce) or b"\x00"

    def _apply_scope(self, scope: _TxScope) -> None:
        """Apply a buffered scope: nonce bumps always, overlay on success."""
        for key, value in scope.nonce_updates.items():
            self._kv_set(key, value)
        if scope.success:
            self._commit_state(scope)

    def _apply_raw(self, raw: RawTransaction, scope: _TxScope) -> bytes:
        """Deploy or call; returns the receipt output."""
        self._check_and_bump_nonce(raw, scope)
        if raw.is_deploy:
            code_blob, vm_name, schema_source, source = parse_deploy_args(raw.args)
            with get_tracer().span("engine.deploy",
                                   code_bytes=len(code_blob)) as span:
                artifact = ContractArtifact.decode(code_blob)
                address = contract_address(raw.sender, raw.nonce)
                schema = parse_schema(schema_source) if schema_source else None
                scope.analysis_mode = self._admit_artifact(
                    artifact, schema, source
                )
                record = _DeployedContract(
                    address, raw.sender, artifact, schema, schema_source
                )
                self.contracts[address] = record
                self._persist_code(record)
                span.set("vm", artifact.target)
            return address
        if raw.method == UPGRADE_METHOD:
            return self._upgrade(raw, scope)
        return self._call(
            raw.contract, raw.method, raw.args,
            caller=raw.sender, scope=scope, depth=1,
        )

    def _execute_raw(self, tx_hash: bytes, raw: RawTransaction,
                     verified: bool, started: float, span,
                     k_tx: bytes | None = None) -> ExecutionOutcome:
        """Run one opened transaction and build its receipt.  A bad
        signature executes nothing; a revert keeps the nonce bump only.
        With ``k_tx`` the receipt is also sealed (T-Protocol formula 2)."""
        scope = _TxScope()
        if not verified:
            span.set("outcome", "invalid signature")
            receipt = Receipt(tx_hash, False, error="invalid signature",
                              sender=raw.sender, contract=raw.contract,
                              kind=KIND_BAD_SIGNATURE)
        else:
            try:
                output = self._apply_raw(raw, scope)
                scope.success = True
                self._apply_scope(scope)
                receipt = Receipt(
                    tx_hash, True, output=output, logs=tuple(scope.logs),
                    instructions=scope.instructions, gas_used=scope.gas_used,
                    storage_reads=scope.storage_reads,
                    storage_writes=scope.storage_writes,
                    sender=raw.sender, contract=raw.contract,
                    analysis_mode=scope.analysis_mode,
                )
                span.set("outcome", "ok")
            except ReproError as exc:
                span.set("outcome", "reverted")
                self._apply_scope(scope)
                kind = (KIND_ANALYSIS if isinstance(exc, AnalysisError)
                        else KIND_REVERT)
                receipt = Receipt(tx_hash, False, error=str(exc),
                                  sender=raw.sender, contract=raw.contract,
                                  kind=kind,
                                  analysis_mode=getattr(
                                      exc, "analysis_mode", ""))
        sealed = (None if k_tx is None
                  else t_protocol.seal_receipt(k_tx, receipt.encode()))
        return ExecutionOutcome(
            receipt, sealed, time.perf_counter() - started,
            frozenset(scope.read_set), frozenset(scope.write_set),
        )


class PublicEngine(_BaseEngine):
    """The stock plaintext execution engine (Public-Engine in Figure 2)."""

    def __init__(self, kv: KVStore, config: EngineConfig = DEFAULT_CONFIG):
        super().__init__(config, OperationStats(), CacheStats())
        self.kv = kv
        # Hashes of admitted transactions, in admission order; refused
        # ones are not kept, so bad transactions cannot grow it.
        self._verified: dict[bytes, bool] = {}
        self._verified_lock = threading.Lock()

    def preverify(self, tx: Transaction) -> bool:
        """Pre-verification for public transactions (§5.2: "the public
        transactions can be verified easily" — in parallel, pre-consensus).
        Only an admitted transaction's verdict is kept for ``execute``."""
        verify_started = time.perf_counter()
        try:
            raw = tx.raw()
        except ReproError:
            # A malformed transaction is simply invalid; like an
            # undecryptable envelope it must not take down the batch.
            return False
        verified = raw.verify_signature()
        self.stats.record(TX_VERIFY, time.perf_counter() - verify_started)
        if verified:
            with self._verified_lock:
                self._verified[tx.tx_hash] = True
                while len(self._verified) > _VERDICT_CAPACITY:
                    del self._verified[next(iter(self._verified))]
        return verified

    def _kv_get(self, key):
        return self.kv.get(key)

    def _kv_set(self, key, value):
        self.kv.put(key, value)

    def _backend_get(self, record, key, full_key):
        return self._kv_get(full_key)

    def _commit_state(self, scope):
        self.kv.write_batch(scope.overlay)

    def _persist_code(self, record: _DeployedContract) -> None:
        blob = rlp.encode(
            [
                record.artifact.encode(),
                record.owner,
                record.schema_source.encode(),
                rlp.encode_int(record.security_version),
            ]
        )
        self.kv.put(_CODE_PREFIX + record.address, blob)

    def _load_record(self, address: bytes) -> _DeployedContract | None:
        blob = self.kv.get(_CODE_PREFIX + address)
        if blob is None:
            return None
        items = rlp.decode(blob)
        artifact = ContractArtifact.decode(items[0])
        schema_source = items[2].decode()
        schema = parse_schema(schema_source) if schema_source else None
        return _DeployedContract(
            address, items[1], artifact, schema, schema_source,
            rlp.decode_int(items[3]),
        )

    def execute(self, tx: Transaction) -> ExecutionOutcome:
        """Execute one public transaction; returns its outcome."""
        with get_tracer().span("engine.execute_tx", kind="public") as span:
            started = time.perf_counter()
            raw = tx.raw()
            with self._verified_lock:
                verified = self._verified.pop(tx.tx_hash, None)
            if verified is None:
                verify_started = time.perf_counter()
                verified = raw.verify_signature()
                self.stats.record(TX_VERIFY, time.perf_counter() - verify_started)
            return self._execute_raw(tx.tx_hash, raw, verified, started, span)


class _CSRuntime(_BaseEngine):
    """The Confidential-Engine as it runs inside the CS enclave, which
    alone references it: ``sk_tx``, the state cipher, the SDM, the
    pre-verification metadata cache, the contract records and the code
    cache.  It reaches the store only through the enclave's ocalls, and
    writes to the host only counts and durations, into the ledgers the
    host handed the enclave."""

    receipts_public = False  # receipts sealed under k_tx (T-Protocol)

    def __init__(self, enclave: "CSEnclave", sk_tx: KeyPair,
                 cipher: StateCipher):
        config, stats, preprocessor, sdm_stats, code_cache_stats = \
            enclave.ledgers
        super().__init__(config, stats, code_cache_stats)
        self._enclave = enclave
        self._sk_tx = sk_tx
        self._cipher = cipher
        self._preprocessor = preprocessor
        self._sdm = SecureDataModule(enclave, cipher, sdm_stats)
        # (tx hash → k_tx, f_verified), filled by pre-verification (§5.2)
        # and bounded: EPC is scarce, the oldest entries go first.
        self._tx_meta: OrderedDict[bytes, TxMetadata] = OrderedDict()
        self._tx_meta_lock = threading.Lock()

    # -- storage, through the enclave's ocalls ----------------------------------

    def _kv_get(self, key):
        return self._enclave.ocall("kv_get", key)

    def _kv_set(self, key, value):
        self._enclave.ocall("kv_set", key, value)

    def _charge_vm_memory(self, record: _DeployedContract) -> None:
        # Each VM instantiation takes enclave heap: linear memory plus the
        # decoded module.  With the memory pool (OPT1) this is a freelist
        # pop; without, it pays allocator overhead and fragmentation in
        # the EPC accounting (paper §5.3).
        vm_bytes = (1 << 20) + len(record.artifact.code) * 4
        handle = self._enclave.malloc(vm_bytes)
        self._enclave.free(handle)

    def _backend_get(self, record, key, full_key):
        aad = _aad_for(record)
        if record.schema is not None and key.startswith(_CCLE_KEY_PREFIX):
            return self._sdm.load_ccle(full_key, aad, record.schema)
        return self._sdm.load(full_key, aad)

    def _commit_state(self, scope):
        prefix_len = len(_STATE_PREFIX)
        for full_key, value in scope.overlay.items():
            address = full_key[prefix_len : prefix_len + ADDRESS_SIZE]
            key = full_key[prefix_len + ADDRESS_SIZE + 1 :]
            record = self._get_record(address)
            aad = _aad_for(record)
            if record.schema is not None and key.startswith(_CCLE_KEY_PREFIX):
                self._sdm.store_ccle(full_key, value, aad, record.schema)
            else:
                self._sdm.store(full_key, value, aad)

    def _persist_code(self, record: _DeployedContract) -> None:
        # Contract code is confidential (D-Protocol covers "contract
        # states and code").  The owner address travels plaintext next to
        # the ciphertext because it is part of the AAD the decryptor must
        # reconstruct; it is integrity-protected by that same AAD binding.
        blob = rlp.encode(
            [record.artifact.encode(), record.schema_source.encode()]
        )
        sealed = self._cipher.seal(blob, _aad_for(record))
        wrapped = rlp.encode(
            [record.owner, rlp.encode_int(record.security_version), sealed]
        )
        self._kv_set(_CODE_PREFIX + record.address, wrapped)

    def _load_record(self, address: bytes) -> _DeployedContract | None:
        wrapped = self._kv_get(_CODE_PREFIX + address)
        if wrapped is None:
            return None
        owner, version_raw, sealed = rlp.decode(wrapped)
        version = rlp.decode_int(version_raw)
        blob = self._cipher.open(sealed, StateAad(address, owner, version))
        items = rlp.decode(blob)
        artifact = ContractArtifact.decode(items[0])
        schema_source = items[1].decode()
        schema = parse_schema(schema_source) if schema_source else None
        return _DeployedContract(
            address, owner, artifact, schema, schema_source, version
        )

    def _migrate_state(self, old: _DeployedContract,
                       new: _DeployedContract) -> None:
        """Re-seal every state entry under the new version's AAD."""
        old_aad, new_aad = _aad_for(old), _aad_for(new)
        prefix = _STATE_PREFIX + old.address + b"/"
        for full_key in self._enclave.ocall("kv_scan", prefix):
            if full_key.endswith(b"#pub"):
                continue  # CCLe public parts are plaintext
            sealed = self._kv_get(full_key)
            if sealed is None:
                continue
            plain = self._cipher.open(sealed, old_aad)
            self._kv_set(full_key, self._cipher.seal(plain, new_aad))

    # -- transactions ------------------------------------------------------------

    def _remember(self, tx_hash: bytes, meta: TxMetadata) -> None:
        with self._tx_meta_lock:
            self._tx_meta[tx_hash] = meta
            self._tx_meta.move_to_end(tx_hash)
            while len(self._tx_meta) > _TX_META_CAPACITY:
                self._tx_meta.popitem(last=False)

    def preverify(self, tx: Transaction) -> bool:
        """Figure 7, steps P2–P4: open, verify, cache the metadata."""
        try:
            meta = self._preprocessor.preverify(self._sk_tx, tx)
        except ReproError:
            # An undecryptable/malformed envelope is simply invalid; it
            # must not take down the rest of the batch (Figure 7:
            # invalid transactions are discarded in advance).
            return False
        self._remember(tx.tx_hash, meta)
        return meta.f_verified

    def execute(self, tx: Transaction) -> ExecutionOutcome:
        with get_tracer().span("engine.execute_tx", kind="confidential") as span:
            started = time.perf_counter()
            with self._tx_meta_lock:
                cached = self._tx_meta.get(tx.tx_hash)
            try:
                processed = self._preprocessor.process(self._sk_tx, tx, cached)
            except ReproError as exc:
                span.set("outcome", "undecryptable")
                receipt = Receipt(tx.tx_hash, False,
                                  error=f"undecryptable: {exc}",
                                  kind=KIND_UNDECRYPTABLE)
                return ExecutionOutcome(receipt, None,
                                        time.perf_counter() - started,
                                        frozenset(), frozenset())
            if cached is None:
                self._remember(tx.tx_hash,
                               TxMetadata(processed.k_tx, processed.verified))
            return self._execute_raw(tx.tx_hash, processed.raw,
                                     processed.verified, started, span,
                                     processed.k_tx)

    def query(self, address: bytes, method: str, argument: bytes) -> bytes:
        """Run a contract method without a transaction; writes are
        discarded with the scope."""
        return self._call(address, method, argument,
                          caller=b"\x00" * ADDRESS_SIZE, scope=_TxScope(),
                          depth=1)

    # -- releases to a requester ---------------------------------------------------

    def _release(self, address: bytes, acl_method: str, argument: bytes,
                 requester_pub: bytes, aad: bytes, secret) -> bytes | None:
        """Ask the target contract's ACL method; on a grant, ECIES-wrap
        ``secret()`` to the requester.  Returns None on denial."""
        verdict = self.query(address, acl_method, argument)
        if not (verdict and verdict[-1:] == b"\x01"):
            return None
        return ecies.encrypt(decode_point(requester_pub), secret(), aad)

    def export_role_key(self, address: bytes, role: str, requester: bytes,
                        requester_pub: bytes) -> bytes | None:
        record = self._get_record(address)
        if record.schema is None or role not in record.schema.roles():
            raise ProtocolError(
                f"contract {address.hex()[:8]} has no CCLe role '{role}'"
            )
        return self._release(
            address, ROLE_ACL_METHOD, rlp.encode([role.encode(), requester]),
            requester_pub, ROLE_RELEASE_AAD,
            lambda: self._cipher.role_key(role),
        )

    def grant_access(self, tx_hash: bytes, requester: bytes,
                     requester_pub: bytes, target: bytes,
                     kind: str) -> bytes | None:
        def cached_key() -> bytes:
            with self._tx_meta_lock:
                meta = self._tx_meta.get(tx_hash)
            if meta is None:
                raise ProtocolError(
                    "authorization granted but k_tx is no longer cached"
                )
            return meta.k_tx

        return self._release(
            target, ACL_METHOD,
            rlp.encode([tx_hash, requester, kind.encode()]),
            requester_pub, ACCESS_WRAP_AAD, cached_key,
        )


class CSEnclave(Enclave):
    """Contract Service enclave: pre-processor + VM + SDM (Figure 6),
    in a runtime that ``install_keys`` builds."""

    VERSION = 1

    def __init__(self, platform: Platform, config: EngineConfig,
                 stats: OperationStats, preprocessor: PreProcessor,
                 sdm_stats: CacheStats, code_cache_stats: CacheStats):
        super().__init__(platform, "cs-enclave")
        # The configuration and the host-side ledgers the runtime writes.
        self.ledgers = (config, stats, preprocessor, sdm_stats,
                        code_cache_stats)

    def _runtime(self) -> _CSRuntime:
        runtime = self.trusted.get("runtime")
        if runtime is None:
            raise ProtocolError("CS enclave has no keys installed")
        return runtime

    def ecall_install_keys(self, blob: bytes, km_measurement_digest: bytes):
        """Install keys provisioned from the KM enclave over the
        local-attestation channel, and build the runtime around them."""
        channel = self.platform.local_channel_key(
            Measurement(km_measurement_digest), self.measurement
        )
        if len(blob) < NONCE_SIZE:
            raise ProtocolError("malformed provisioning blob")
        nonce, sealed = blob[:NONCE_SIZE], blob[NONCE_SIZE:]
        payload = AesGcm(channel).open(nonce, sealed, _LOCAL_AAD)
        items = rlp.decode(payload)
        keypair = KeyPair.from_private(int.from_bytes(items[0], "big"))
        self.trusted["runtime"] = _CSRuntime(self, keypair,
                                             StateCipher(items[1]))

    def ecall_preverify_batch(self, batch_blob: bytes) -> list[bool]:
        """Figure 7, step P1: a whole batch crosses the boundary in one
        ecall (one transition amortized over the batch)."""
        runtime = self._runtime()
        return [runtime.preverify(Transaction.decode(item))
                for item in rlp.decode(batch_blob)]

    def ecall_execute(self, tx_bytes: bytes) -> ExecutionOutcome:
        return self._runtime().execute(Transaction.decode(tx_bytes))

    def ecall_query(self, address: bytes, method: bytes, argument: bytes) -> bytes:
        return self._runtime().query(address, method.decode(), argument)

    def ecall_export_role_key(self, address: bytes, role: bytes,
                              requester: bytes, requester_pub: bytes):
        return self._runtime().export_role_key(address, role.decode(),
                                               requester, requester_pub)

    def ecall_grant_access(self, tx_hash: bytes, requester: bytes,
                           requester_pub: bytes, target: bytes, kind: bytes):
        return self._runtime().grant_access(tx_hash, requester, requester_pub,
                                            target, kind.decode())


class ConfidentialEngine:
    """CONFIDE's Confidential-Engine, as the host holds it."""

    def __init__(
        self,
        kv: KVStore,
        config: EngineConfig = DEFAULT_CONFIG,
        platform: Platform | None = None,
    ):
        self.kv = kv
        self.config = config
        self.platform = platform or Platform(use_memory_pool=config.use_memory_pool)
        self.platform.epc.use_pool = config.use_memory_pool
        # Guard-safe ledgers (counts and durations only): the CS enclave
        # writes into them, the host reads them.
        self.stats = OperationStats()
        self.preprocessor = PreProcessor(self.stats)
        self.sdm_stats = CacheStats()
        self.code_cache_stats = CacheStats()
        self.km = KMEnclave(self.platform)
        self.cs = CSEnclave(self.platform, config, self.stats,
                            self.preprocessor, self.sdm_stats,
                            self.code_cache_stats)
        # The ocall handlers: the only way the enclave reaches the store.
        self.cs.register_ocall("kv_get", kv.get)
        self.cs.register_ocall("kv_set", kv.put)
        self.cs.register_ocall("kv_scan", lambda prefix: [
            key for key, _ in kv.items_with_prefix(prefix)])
        self._pk_tx: bytes | None = None
        # Spans record modeled TEE cycles next to wall-clock time.  The
        # tracer is process-global, so the most recently built engine's
        # accountant wins — fine for the single-platform benches and demos
        # this instrumentation serves.
        get_tracer().cycle_source = lambda: self.platform.accountant.cycles

    # -- key lifecycle ---------------------------------------------------------

    def provision_from_km(self, persist_sealed: bool = True) -> bytes:
        """Move keys KM→CS over the local channel; returns pk_tx.

        The KM enclave must already hold keys (founder generation,
        centralized KMS, or decentralized MAP — see k_protocol).  With
        ``persist_sealed`` the keys are also sealed to this platform and
        stored, so a restarted engine on the same machine can recover
        them without re-running the K-Protocol (see
        :meth:`restore_keys_from_storage`).
        """
        if persist_sealed:
            sealed = self.km.ecall("seal_keys")
            self.kv.put(_SEALED_KEYS_KEY, sealed)
        blob = self.km.ecall("provision_cs", self.cs.measurement.digest)
        self._pk_tx = self.km.ecall("public_key")
        self.cs.ecall("install_keys", blob, self.km.measurement.digest)
        # Key management is low-frequency: release its EPC immediately
        # (paper §5.3 "destroyed as soon as possible").
        self.km.destroy()
        return self._pk_tx

    def revive_km(self) -> KMEnclave:
        """Re-create a KM enclave holding this node's keys.

        The KM enclave is destroyed right after provisioning (EPC
        hygiene, §5.3); when a late joiner needs the decentralized MAP,
        an existing member revives its KM enclave from the
        platform-sealed key blob.
        """
        sealed = self.kv.get(_SEALED_KEYS_KEY)
        if sealed is None:
            raise ProtocolError("no sealed keys to revive the KM enclave with")
        km = KMEnclave(self.platform, "km-enclave-revived")
        km.ecall("unseal_keys", sealed)
        self.km = km
        return km

    def restore_keys_from_storage(self) -> bytes:
        """Recover keys after a restart from the platform-sealed blob.

        Only works on the *same platform* (the sealing key derives from
        the platform secret and the KM enclave's measurement); a copied
        database on another machine cannot unseal — exactly SGX sealing
        semantics.
        """
        sealed = self.kv.get(_SEALED_KEYS_KEY)
        if sealed is None:
            raise ProtocolError("no sealed keys in storage")
        if self.km.destroyed:
            self.km = KMEnclave(self.platform, "km-enclave-restarted")
        self.km.ecall("unseal_keys", sealed)
        return self.provision_from_km(persist_sealed=False)

    @property
    def pk_tx(self) -> bytes:
        if self._pk_tx is None:
            raise ProtocolError("engine keys not provisioned")
        return self._pk_tx

    # -- ecall wrappers ----------------------------------------------------------

    def preverify(self, tx: Transaction) -> bool:
        """§5.2 pre-verification: decrypt + verify + cache metadata."""
        return self.preverify_batch([tx])[0]

    def preverify_batch(self, txs: list[Transaction]) -> list[bool]:
        """Admit a batch with a single enclave transition."""
        if not self.config.use_preverification:
            return [True] * len(txs)
        if not txs:
            return []
        blob = rlp.encode([tx.encode() for tx in txs])
        return self.cs.ecall("preverify_batch", blob)

    def execute(self, tx: Transaction) -> ExecutionOutcome:
        """Execute one confidential transaction inside the CS enclave."""
        if not tx.is_confidential:
            raise ProtocolError("ConfidentialEngine only executes TYPE=1")
        return self.cs.ecall("execute", tx.encode(), user_check=True)

    def call_readonly(self, address: bytes, method: str, argument: bytes) -> bytes:
        """Run a contract method without a transaction (queries).  State
        writes are discarded."""
        return self.cs.ecall("query", address, method.encode(), argument)

    def export_role_key(
        self, address: bytes, role: str, requester: bytes,
        requester_pub: bytes,
    ) -> bytes | None:
        """Release a CCLe role subkey to an authorized requester.

        The target contract's ``acl_role`` method (input: RLP of
        [role, requester address]) decides; on a grant the role subkey is
        ECIES-wrapped to the requester's public key.  Returns None on
        denial.
        """
        return self.cs.ecall(
            "export_role_key", address, role.encode(), requester,
            requester_pub,
        )

    def grant_access(self, tx_hash: bytes, requester: bytes,
                     requester_pub: bytes, target: bytes,
                     kind: str) -> bytes | None:
        """The authorization chain code's release (§3.2.3): the target's
        ``acl_check`` (input: RLP of [tx hash, requester, kind]) decides;
        a grant ECIES-wraps the cached ``k_tx`` to the requester."""
        return self.cs.ecall(
            "grant_access", tx_hash, requester, requester_pub, target,
            kind.encode(),
        )
