"""Fault taxonomy and the seeded fault injector.

Eight fault kinds, grouped by the layer they attack:

- message faults (``drop``, ``delay``, ``dup``) — applied per message at
  send time by the transport;
- ``partition`` — a random two-way network cut, healed after a bounded
  number of steps;
- node lifecycle faults (``crash`` — kill the in-memory node, keeping
  its persisted storage and platform, with a scheduled restart;
  ``torn`` — upgrade crashes to tear off the tail of the node's
  write-ahead log mid-record, exercising torn-write recovery on
  persistent storage backends; ``slow`` — a window during which a
  node's links crawl);
- TEE faults (``enclave`` — tear the confidential engine down and
  rebuild it on the same platform, forcing K-Protocol key recovery and
  re-attestation; ``epc`` — EPC pressure spikes that force page
  eviction of canary-bearing enclave memory).

All decisions are drawn from the single run-wide ``random.Random``, so
the schedule is a pure function of the seed; every decision is recorded
so a failure report can print the complete schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ChainError

FAULT_KINDS = (
    "drop", "delay", "dup", "partition", "crash", "torn", "slow", "enclave",
    "epc",
)


def parse_faults(spec) -> frozenset[str]:
    """Parse a ``drop,crash,partition,epc`` style spec (or iterable)."""
    if spec is None:
        return frozenset()
    if isinstance(spec, str):
        names = [part.strip() for part in spec.split(",") if part.strip()]
    else:
        names = [str(part) for part in spec]
    if any(name == "all" for name in names):
        return frozenset(FAULT_KINDS)
    unknown = sorted(set(names) - set(FAULT_KINDS))
    if unknown:
        raise ChainError(
            f"unknown fault kind(s) {unknown}; valid: {', '.join(FAULT_KINDS)}"
        )
    return frozenset(names)


@dataclass(frozen=True)
class FaultRates:
    """Per-step / per-message fault probabilities (step-based windows)."""

    drop_p: float = 0.06
    dup_p: float = 0.04
    delay_p: float = 0.25
    max_extra_delay_s: float = 0.040
    partition_p: float = 0.02
    partition_steps: tuple[int, int] = (6, 30)
    crash_p: float = 0.025
    crash_steps: tuple[int, int] = (8, 40)
    slow_p: float = 0.03
    slow_steps: tuple[int, int] = (5, 25)
    slow_factor: float = 5.0
    enclave_p: float = 0.02
    epc_p: float = 0.15
    torn_p: float = 0.5  # chance a crash also tears the WAL tail
    torn_bytes: tuple[int, int] = (1, 72)  # bytes sheared off the tail


@dataclass(frozen=True)
class CrashFault:
    node_id: int
    restart_step: int
    torn_bytes: int = 0  # >0: shear this many bytes off the WAL tail


@dataclass(frozen=True)
class PartitionFault:
    group_a: tuple[int, ...]
    group_b: tuple[int, ...]
    heal_step: int


@dataclass(frozen=True)
class SlowFault:
    node_id: int
    until_step: int


@dataclass(frozen=True)
class EnclaveFault:
    node_id: int


@dataclass(frozen=True)
class EpcFault:
    node_id: int


class FaultInjector:
    """Draws all fault decisions from the run's single RNG."""

    def __init__(
        self,
        rng: random.Random,
        enabled: frozenset[str],
        num_nodes: int,
        rates: FaultRates = FaultRates(),
    ):
        self.rng = rng
        self.enabled = enabled
        self.num_nodes = num_nodes
        self.rates = rates
        self.max_faulty = (num_nodes - 1) // 3
        self.schedule: list[str] = []
        self.active = True  # cleared during the drain phase

    def record(self, step: int, entry: str) -> None:
        self.schedule.append(f"step {step:05d}: {entry}")

    # -- message-level ---------------------------------------------------

    def message_fate(self) -> tuple[bool, bool, float]:
        """(dropped, duplicated, extra_delay_s) for one message.

        Always draws the same number of random values regardless of
        which kinds are enabled, so enabling a fault never perturbs the
        RNG stream consumed by the others.
        """
        rates = self.rates
        drop_roll = self.rng.random()
        dup_roll = self.rng.random()
        delay_roll = self.rng.random()
        jitter = self.rng.random()
        if not self.active:
            return False, False, 0.0
        dropped = "drop" in self.enabled and drop_roll < rates.drop_p
        duplicated = "dup" in self.enabled and dup_roll < rates.dup_p
        extra = 0.0
        if "delay" in self.enabled and delay_roll < rates.delay_p:
            extra = jitter * rates.max_extra_delay_s
        return dropped, duplicated, extra

    # -- step-level ------------------------------------------------------

    def plan_step(
        self,
        step: int,
        alive_ids: list[int],
        crashed_ids: list[int],
        partitioned: bool,
    ) -> list[object]:
        """Fault commands to apply this step, recorded in the schedule."""
        if not self.active:
            return []
        rates = self.rates
        plan: list[object] = []
        rng = self.rng

        if "crash" in self.enabled and rng.random() < rates.crash_p:
            if len(crashed_ids) < self.max_faulty and alive_ids:
                victim = rng.choice(sorted(alive_ids))
                down = rng.randint(*rates.crash_steps)
                torn = 0
                if "torn" in self.enabled and rng.random() < rates.torn_p:
                    torn = rng.randint(*rates.torn_bytes)
                plan.append(CrashFault(victim, step + down, torn))
                self.record(
                    step,
                    f"crash node={victim} restart_at={step + down}"
                    + (f" torn={torn}" if torn else ""),
                )

        if "partition" in self.enabled and not partitioned \
                and rng.random() < rates.partition_p and self.num_nodes >= 2:
            ids = list(range(self.num_nodes))
            rng.shuffle(ids)
            cut = rng.randint(1, max(1, self.max_faulty))
            group_b = tuple(sorted(ids[:cut]))
            group_a = tuple(sorted(ids[cut:]))
            heal = step + rng.randint(*rates.partition_steps)
            plan.append(PartitionFault(group_a, group_b, heal))
            self.record(
                step,
                f"partition {list(group_a)}|{list(group_b)} heal_at={heal}",
            )

        if "slow" in self.enabled and rng.random() < rates.slow_p and alive_ids:
            victim = rng.choice(sorted(alive_ids))
            until = step + rng.randint(*rates.slow_steps)
            plan.append(SlowFault(victim, until))
            self.record(step, f"slow node={victim} until={until}")

        if "enclave" in self.enabled and rng.random() < rates.enclave_p and alive_ids:
            victim = rng.choice(sorted(alive_ids))
            plan.append(EnclaveFault(victim))
            self.record(step, f"enclave-restart node={victim}")

        if "epc" in self.enabled and rng.random() < rates.epc_p:
            victim = rng.randrange(self.num_nodes)
            plan.append(EpcFault(victim))
            self.record(step, f"epc-spike node={victim}")

        return plan
