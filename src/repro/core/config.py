"""Engine configuration, including the paper's optimization toggles.

Figure 12's ablation flips these switches cumulatively:

- OPT1 — ``use_code_cache`` + ``use_memory_pool``: the code cache keeps
  one template per code hash — the decoded, validated, fused module with
  every function translated once, on its first call — where without it
  every call decodes the module and translates the functions it runs;
  the memory pool hands each call its linear memory from a per-thread
  pool, re-zeroing only the extent the last call dirtied, where without
  it every call allocates a fresh zeroed buffer (and the EPC model
  charges allocator overhead);
- OPT2 — a *workload* property (Flatbuffers vs JSON contract variants in
  :mod:`repro.workloads.abs`), not an engine switch;
- OPT3 — ``use_preverification`` (§5.2 metadata cache);
- OPT4 — ``use_instruction_fusion`` (superinstructions / reduced
  dispatch).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.vm.evm.interpreter import DEFAULT_GAS_LIMIT
from repro.vm.wasm.interpreter import DEFAULT_MAX_STEPS


@dataclass(frozen=True)
class EngineConfig:
    """Behavioural switches for a contract execution engine."""

    use_code_cache: bool = True
    use_memory_pool: bool = True
    use_preverification: bool = True
    use_instruction_fusion: bool = True
    max_steps: int = DEFAULT_MAX_STEPS
    gas_limit: int = DEFAULT_GAS_LIMIT
    # Persistent storage (docs/storage.md).  "memory" keeps everything
    # in-process; "lsm" persists under the node's data directory and
    # seals every file at rest to the node's platform.
    storage_backend: str = "memory"  # "memory" | "lsm"
    storage_sync: bool = False  # fsync every commit (bench realism)
    # LSM memtable freeze threshold; small values force frequent
    # flushes on the committing thread (the sim uses this to exercise
    # crash-after-flush recovery).
    storage_memtable_bytes: int = 256 * 1024

    def without_optimizations(self) -> "EngineConfig":
        """Baseline configuration with every OPT switch off."""
        return replace(
            self,
            use_code_cache=False,
            use_memory_pool=False,
            use_preverification=False,
            use_instruction_fusion=False,
        )


DEFAULT_CONFIG = EngineConfig()
