"""Pytest-importable scenario builders.

Each builder returns a fully described :class:`SimConfig`; tests and the
CI smoke job call ``run_sim`` on them directly.  Keeping the presets
here (rather than in test files) makes every scenario replayable from
the ``repro sim`` command line with the same parameters.
"""

from __future__ import annotations

from repro.sim.faults import FAULT_KINDS
from repro.sim.harness import SimConfig


def clean_scenario(seed: int, steps: int = 120) -> SimConfig:
    """No faults at all — the baseline the fault runs are compared to."""
    return SimConfig(seed=seed, steps=steps, faults=frozenset())


def message_chaos_scenario(seed: int, steps: int = 200) -> SimConfig:
    """Drop, delay, and duplicate every class of message."""
    return SimConfig(
        seed=seed, steps=steps, faults=frozenset({"drop", "delay", "dup"})
    )


def crash_restart_scenario(seed: int, steps: int = 200) -> SimConfig:
    """Node crashes with storage-backed restarts (plus message drops,
    so restarts land mid-stream rather than at quiet points)."""
    return SimConfig(
        seed=seed, steps=steps, faults=frozenset({"crash", "drop"})
    )


def partition_scenario(seed: int, steps: int = 200) -> SimConfig:
    """Network partitions with bounded heals, plus slow nodes."""
    return SimConfig(
        seed=seed, steps=steps, faults=frozenset({"partition", "slow", "delay"})
    )


def tee_fault_scenario(seed: int, steps: int = 200) -> SimConfig:
    """Enclave teardown/rebuild and EPC pressure spikes."""
    return SimConfig(
        seed=seed, steps=steps, faults=frozenset({"enclave", "epc"})
    )


def acceptance_scenario(seed: int, steps: int = 500) -> SimConfig:
    """The issue's acceptance configuration:
    ``--faults drop,crash,partition,epc``."""
    return SimConfig(
        seed=seed, steps=steps,
        faults=frozenset({"drop", "crash", "partition", "epc"}),
    )


def everything_scenario(seed: int, steps: int = 300) -> SimConfig:
    """All eight fault kinds at once."""
    return SimConfig(seed=seed, steps=steps, faults=frozenset(FAULT_KINDS))


SCENARIOS = {
    "clean": clean_scenario,
    "message-chaos": message_chaos_scenario,
    "crash-restart": crash_restart_scenario,
    "partition": partition_scenario,
    "tee-faults": tee_fault_scenario,
    "acceptance": acceptance_scenario,
    "everything": everything_scenario,
}

