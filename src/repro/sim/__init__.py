"""Deterministic fault-injection simulator for the CONFIDE consortium.

FoundationDB-style simulation testing: a whole multi-node consortium —
real enclaves, real K-Protocol key agreement, real block execution —
runs over simulated time under seeded fault injection (message drop /
delay / duplication, partitions, node crashes with storage-backed
restarts, enclave teardown with K-Protocol key recovery, EPC pressure
spikes), with safety, durability, and confidentiality invariants
machine-checked after every step.  Every run is a pure function of one
integer seed.

Entry points: :func:`run_sim` (programmatic), ``repro sim`` (CLI), and
:mod:`repro.sim.scenarios` (pytest-importable presets).
"""

from repro.sim.faults import FAULT_KINDS, parse_faults
from repro.sim.harness import SimConfig, run_sim
from repro.sim.invariants import (
    ConfidentialityChecker,
    SafetyChecker,
    check_epc_sanity,
)

__all__ = [
    "ConfidentialityChecker",
    "FAULT_KINDS",
    "SafetyChecker",
    "SimConfig",
    "check_epc_sanity",
    "parse_faults",
    "run_sim",
]
