"""Software SGX-enclave simulator.

Provides the trust semantics CONFIDE relies on — isolation, measurement,
attestation, sealing — plus an explicit cost model for the hardware
effects a simulation cannot exhibit (transitions, boundary copies, EPC
paging).  See DESIGN.md for the substitution argument.
"""

from repro.tee.attestation import (
    AttestationService,
    LocalReport,
    Quote,
    create_local_report,
    create_quote,
    verify_local_report,
)
from repro.tee.edl import Direction, EdlInterface, EdlParam
from repro.tee.enclave import Enclave, Measurement, Platform
from repro.tee.epc import EPC_USABLE_BYTES, PAGE_SIZE, EpcAllocator, MemoryPool
from repro.tee.monitor import EnclaveMonitor
from repro.tee.transitions import DEFAULT_COST_MODEL, CostModel, CycleAccountant

__all__ = [
    "AttestationService",
    "CostModel",
    "CycleAccountant",
    "DEFAULT_COST_MODEL",
    "Direction",
    "EPC_USABLE_BYTES",
    "EdlInterface",
    "EdlParam",
    "Enclave",
    "EnclaveMonitor",
    "EpcAllocator",
    "LocalReport",
    "Measurement",
    "MemoryPool",
    "PAGE_SIZE",
    "Platform",
    "Quote",
    "create_local_report",
    "create_quote",
    "verify_local_report",
]
