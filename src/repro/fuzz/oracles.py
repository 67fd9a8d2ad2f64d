"""The fuzzing oracles: divergence, confidentiality, resources, pool.

Every executed sequence is judged by:

1. **Differential** — CONFIDE-VM and the EVM ran the same contract
   source from the same calldata; any difference in per-call status,
   output bytes, abort message, emitted logs, or the end-of-sequence
   logical state root is a semantic divergence between the engines.
   Resource exhaustion is excluded from the comparison (fuel and gas
   budgets are not commensurable) and reported by oracle 3 instead.

2. **Confidentiality canary** — secret-marked ABI fields are treated
   as planted canaries.  The scan surfaces mirror the static
   analyzer's sink model (and the PR 3 invariant checker it reuses):
   logs are always public; persisted state outside the target's
   confidential key prefixes is host-visible; ``call_contract``
   arguments travel on the wire; outputs and revert payloads are
   public only when the target says receipts are (Public-Engine).
   Low-entropy values are skipped — a counter colliding with the
   byte 0x00 is not a leak.

3. **Resource** — fuel/gas exhaustion under the fuzzer's generous
   per-call budget, or a call whose executed instruction count
   explodes past the static analyzer's cycle estimate for loop-free
   code.  Plus **crash**: any exception outside the VM error taxonomy.

4. **Pool** — CONFIDE-VM ran the sequence on pooled linear memory and
   again on fresh memory; any difference in per-call status, output,
   logs, instruction count or trap text, or in the final state or
   wire, means a reused buffer carried bytes from one call into the
   next.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvariantViolation
from repro.fuzz.corpus import encode_sequence
from repro.sim.invariants import ConfidentialityChecker

# A canary needle must look like entropy, not like a counter: at least
# this many bytes and this many distinct byte values.
MIN_NEEDLE_LEN = 6
MIN_NEEDLE_DISTINCT = 4

# Loop-free calls may legitimately exceed the static cycle estimate
# (the estimate prices superinstructions, not every interpreter step),
# but not by orders of magnitude.
RESOURCE_FACTOR = 256


@dataclass
class Finding:
    """One oracle violation, replayable from its sequence line."""

    kind: str            # divergence | canary | resource | crash
    target: str
    sequence: tuple
    detail: str
    call_index: int = -1
    seed: int = 0

    def line(self) -> str:
        return encode_sequence(self.sequence)

    def key(self) -> tuple:
        """Dedup key: one report per (kind, site), not per input or
        sequence position — the leading detail token is the site."""
        site = self.detail.split("|", 1)[0]
        return (self.kind, self.target, site)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "sequence": self.line(),
            "detail": self.detail,
            "call_index": self.call_index,
            "seed": self.seed,
        }


def sequence_needles(sequence, abi) -> list[bytes]:
    """Canary bytes planted in secret-marked fields of a sequence."""
    needles = []
    for step in sequence:
        spec = abi.spec(step.method)
        if spec is None:
            continue
        for off, size in spec.secret_ranges():
            needle = step.args[off:off + size]
            if (len(needle) >= MIN_NEEDLE_LEN
                    and len(set(needle)) >= MIN_NEEDLE_DISTINCT
                    and needle not in needles):
                needles.append(needle)
    return needles


def check_divergence(target_name, sequence, wasm_run, evm_run) -> list:
    """Cross-VM comparison of two transcripts of the same sequence."""
    findings = []
    for i, (w, e) in enumerate(zip(wasm_run.outcomes, evm_run.outcomes)):
        if "resource" in (w.status, e.status):
            continue  # fuel and gas exhaust at different points
        if "crash" in (w.status, e.status):
            continue  # reported by the crash oracle with full detail
        if w.compare_key() != e.compare_key():
            findings.append(Finding(
                "divergence", target_name, sequence,
                f"{sequence[i].method}|call[{i}]"
                f"|wasm={w.status}:{w.output.hex()}:{w.error}"
                f"|evm={e.status}:{e.output.hex()}:{e.error}",
                call_index=i))
            return findings  # later calls run from diverged state
    if wasm_run.state_digest != evm_run.state_digest:
        findings.append(Finding(
            "divergence", target_name, sequence,
            f"state-root|wasm={wasm_run.state_digest.hex()[:16]}"
            f"|evm={evm_run.state_digest.hex()[:16]}"))
    return findings


def _public_state_blobs(run, confidential_prefixes) -> list[bytes]:
    blobs = []
    for key in sorted(run.state):
        if any(key.startswith(p) for p in confidential_prefixes):
            continue
        blobs.append(key + b"\x00" + run.state[key])
    return blobs


def check_canary(target, sequence, run, abi) -> list:
    """Scan one VM transcript's public surfaces for planted secrets."""
    needles = sequence_needles(sequence, abi)
    if not needles:
        return []
    checker = ConfidentialityChecker(needles)
    surfaces = [
        ("logs", list(run.all_logs)),
        ("wire", list(run.wire)),
        ("public-kv", _public_state_blobs(run,
                                          target.confidential_prefixes)),
    ]
    if target.receipts_public:
        receipts = []
        for outcome in run.outcomes:
            receipts.append(outcome.output)
            if outcome.status in ("abort", "revert"):
                receipts.append(outcome.error.encode())
        surfaces.append(("receipts", receipts))
    findings = []
    for surface, blobs in surfaces:
        try:
            checker.scan_blobs(blobs, f"{run.vm} {surface}")
        except InvariantViolation as exc:
            findings.append(Finding(
                "canary", target.name, sequence,
                f"{surface}/{run.vm}|{exc}"))
    return findings


def check_resources(target_name, sequence, run, resources,
                    factor: int = RESOURCE_FACTOR) -> list:
    """Fuel/gas exhaustion and static-estimate blowouts."""
    findings = []
    estimates = {r.function: r for r in resources}
    for i, outcome in enumerate(run.outcomes):
        method = sequence[i].method
        if outcome.status == "resource":
            findings.append(Finding(
                "resource", target_name, sequence,
                f"{method}/{run.vm}|call[{i}]|{outcome.error}",
                call_index=i))
            continue
        est = estimates.get(method)
        if (est is not None and not est.has_loops
                and est.cycle_estimate > 0 and outcome.instructions
                > factor * est.cycle_estimate):
            findings.append(Finding(
                "resource", target_name, sequence,
                f"{method}/{run.vm}|call[{i}]|instructions="
                f"{outcome.instructions} estimate={est.cycle_estimate}",
                call_index=i))
    return findings


def check_crashes(target_name, sequence, run) -> list:
    return [
        Finding("crash", target_name, sequence,
                f"{sequence[i].method}/{run.vm}|call[{i}]|{o.error}",
                call_index=i)
        for i, o in enumerate(run.outcomes) if o.status == "crash"
    ]


def check_pool(target_name, sequence, pooled_run, fresh_run) -> list:
    """Pooled vs fresh linear memory: the transcripts must be identical."""
    for i, (p, f) in enumerate(zip(pooled_run.outcomes, fresh_run.outcomes)):
        if ((p.status, p.output, p.logs, p.instructions, p.error)
                != (f.status, f.output, f.logs, f.instructions, f.error)):
            return [Finding(
                "pool", target_name, sequence,
                f"{sequence[i].method}|call[{i}]"
                f"|pooled={p.status}:{p.instructions}:{p.output.hex()}:{p.error}"
                f"|fresh={f.status}:{f.instructions}:{f.output.hex()}:{f.error}",
                call_index=i)]
    if (pooled_run.state_digest != fresh_run.state_digest
            or pooled_run.wire != fresh_run.wire):
        return [Finding(
            "pool", target_name, sequence,
            f"state|pooled={pooled_run.state_digest.hex()[:16]}"
            f"|fresh={fresh_run.state_digest.hex()[:16]}")]
    return []


@dataclass
class OracleSuite:
    """All oracles over one differential execution."""

    target: object
    abi: object
    wasm_resources: list = field(default_factory=list)

    def judge(self, sequence, wasm_run, evm_run, fresh_run) -> list:
        """``fresh_run`` is ``wasm_run`` replayed on fresh memory."""
        findings = []
        findings += check_divergence(self.target.name, sequence,
                                     wasm_run, evm_run)
        for run in (wasm_run, evm_run):
            findings += check_canary(self.target, sequence, run, self.abi)
            findings += check_crashes(self.target.name, sequence, run)
        findings += check_resources(self.target.name, sequence, wasm_run,
                                    self.wasm_resources)
        # Static estimates are CONFIDE-VM cycles; the EVM side still
        # reports fuel/gas exhaustion.
        findings += check_resources(self.target.name, sequence, evm_run, [])
        findings += check_pool(self.target.name, sequence, wasm_run,
                               fresh_run)
        return findings
