"""Uniform execution of compiled artifacts on either VM.

The engines use this module to run a contract method against a
:class:`~repro.vm.host.HostContext`.  For the wasm target a
:class:`~repro.vm.wasm.code_cache.CodeCache` can be supplied (OPT1);
without one, the module is decoded and its called functions translated
on every call, which is exactly the cost the cache removes.  The other
half of OPT1, ``memory_pool``, takes the call's linear memory from a
per-thread pool instead of allocating it.
"""

from __future__ import annotations

from repro.errors import VMError
from repro.lang.compiler import ContractArtifact
from repro.obs.trace import get_tracer
from repro.vm.evm.interpreter import DEFAULT_GAS_LIMIT, EvmInstance
from repro.vm.host import ExecutionResult, HostContext
from repro.vm.wasm.code_cache import CodeCache, prepare_module
from repro.vm.wasm.interpreter import DEFAULT_MAX_STEPS, ModuleTemplate, WasmInstance


def execute(
    artifact: ContractArtifact,
    method: str,
    context: HostContext,
    *,
    code_cache: CodeCache | None = None,
    code_hash: bytes | None = None,
    fuse: bool = True,
    memory_pool: bool = False,
    max_steps: int = DEFAULT_MAX_STEPS,
    gas_limit: int = DEFAULT_GAS_LIMIT,
) -> ExecutionResult:
    """Run `method` of a compiled contract and return its result."""
    if method not in artifact.methods:
        raise VMError(f"contract has no method '{method}'")
    with get_tracer().span("vm.exec", vm=artifact.target,
                           code_bytes=len(artifact.code)) as span:
        if artifact.target == "wasm":
            if code_cache is not None:
                template = code_cache.prepare(artifact.code, code_hash)
            else:
                template = ModuleTemplate(prepare_module(artifact.code, fuse=fuse))
            instance = WasmInstance(template, context, max_steps=max_steps,
                                    pooled=memory_pool)
            result = instance.run(method)
        elif artifact.target == "evm":
            instance = EvmInstance(artifact.code, context, gas_limit=gas_limit)
            result = instance.run(artifact.entry_for(method))
        else:
            raise VMError(f"unknown artifact target '{artifact.target}'")
        span.set("instructions", result.instructions)
        return result
