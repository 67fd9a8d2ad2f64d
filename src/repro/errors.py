"""Exception hierarchy shared by every repro subsystem.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch one base class at the integration boundary while
tests can assert on precise subclasses.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key size, bad point, ...)."""


class AuthenticationError(CryptoError):
    """Authenticated decryption or signature verification failed."""


class EnclaveError(ReproError):
    """Violation of the simulated TEE trust boundary or enclave misuse."""


class AttestationError(EnclaveError):
    """An attestation quote or report failed verification."""


class PagingError(EnclaveError):
    """The EPC pager was asked to do something impossible."""


class StorageError(ReproError):
    """Key-value store, RLP, or merkle-tree failure."""


class VMError(ReproError):
    """Smart-contract virtual machine execution failure."""


class OutOfGasError(VMError):
    """EVM-style gas budget exhausted."""


class TrapError(VMError):
    """CONFIDE-VM trap (out-of-bounds access, stack fault, ...)."""


class CompileError(ReproError):
    """CWScript compilation failure (lex, parse, or codegen)."""


class SchemaError(ReproError):
    """CCLe schema parse or validation failure."""


class EncodingError(ReproError):
    """CCLe binary encode/decode failure."""


class ProtocolError(ReproError):
    """T-/D-/K-protocol violation."""


class ChainError(ReproError):
    """Blockchain substrate failure (consensus, block, mempool, node)."""


class TelemetryError(ReproError):
    """The telemetry confidentiality guard rejected a span or metric
    field (payload bytes, non-allowlisted string, malformed name)."""


class ContractError(ReproError):
    """A smart contract aborted with an application-level error."""


class InvariantViolation(ReproError):
    """A fault-injection simulator invariant (safety, durability, or
    confidentiality) was violated.  The message carries enough context
    to replay the run (seed + fault schedule are printed by the
    harness's failure report)."""


class AnalysisError(ReproError):
    """Deploy-time static analysis rejected a contract.

    Raised by the taint analyzer (confidential-to-public flow) or the
    bytecode verifier (structurally invalid artifact).  ``findings``
    carries the structured findings behind the rejection; the message is
    prefixed ``analysis:`` so chain-level receipts are attributable.
    """

    def __init__(self, message: str, findings: tuple = ()):
        super().__init__(f"analysis: {message}")
        self.findings = tuple(findings)
