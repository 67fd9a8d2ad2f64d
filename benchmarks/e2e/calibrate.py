"""The machine's speed, sampled beside every timed piece of work.

This benchmark runs on a few cores of a shared host whose speed changes
by up to 1.6× for seconds to minutes at a time (a neighbour on the
sibling hardware thread).  Two runs of one commit that meet different
stretches differ by that much, which no bound of a quarter survives.  So
every timed piece of work is short (a second or two), a fixed kernel is
timed in the system's own process right before and right after it, and
the piece's time is divided by how much slower than ``REFERENCE_S`` the
kernel ran: times are reported *at reference speed*.

The kernel is the benchmark's own code and touches nothing under
``src/``: an optimisation of the program cannot move it.  It mixes what
the program's pure-Python layers do (32-bit table lookups and XORs as in
AES, 256-bit modular products as in ECDSA, method dispatch on a small
stack machine, a plain integer loop), because one kind alone follows the
program's slow-down less well than the four together.
"""

from __future__ import annotations

import statistics
import time

# One pass of the kernel on this class of machine when nothing disturbs
# it.  Only a scale: a machine that runs the pass in this time reports
# its times unchanged.
REFERENCE_S = 0.0049
ROUNDS = 3  # a pass is the fastest of this many rounds of the kernel

_T0 = [(i * 2654435761) & 0xFFFFFFFF for i in range(256)]
_T1 = [(i * 40503 + 17) & 0xFFFFFFFF for i in range(256)]
_P = (1 << 256) - (1 << 32) - 977


def _integer_loop(n: int = 13000) -> int:
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFFFFFF
    return x


def _table_rounds(n: int = 850) -> int:
    t0, t1 = _T0, _T1
    s0, s1, s2, s3 = 1, 2, 3, 4
    for i in range(n):
        a = t0[s0 & 255] ^ t1[(s1 >> 8) & 255] ^ t0[(s2 >> 16) & 255] \
            ^ t1[(s3 >> 24) & 255] ^ i
        b = t0[s1 & 255] ^ t1[(s2 >> 8) & 255] ^ t0[(s3 >> 16) & 255] \
            ^ t1[(s0 >> 24) & 255]
        c = t0[s2 & 255] ^ t1[(s3 >> 8) & 255] ^ t0[(s0 >> 16) & 255] \
            ^ t1[(s1 >> 24) & 255]
        d = t0[s3 & 255] ^ t1[(s0 >> 8) & 255] ^ t0[(s1 >> 16) & 255] \
            ^ t1[(s2 >> 24) & 255]
        s0, s1, s2, s3 = a, b, c, d
    return s0


def _modular_products(n: int = 2000) -> int:
    g = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF
    h = g + 12345
    for i in range(n):
        g = (g * h + i) % _P
        h = (h * h) % _P
    return g


class _Machine:
    __slots__ = ("stack", "pc", "memory")

    def __init__(self):
        self.stack: list[int] = []
        self.pc = 0
        self.memory: dict[int, int] = {}

    def push(self, value: int) -> None:
        self.stack.append(value)

    def add(self) -> None:
        stack = self.stack
        b = stack.pop()
        stack.append((stack.pop() + b) & 0xFFFFFFFFFFFFFFFF)

    def store(self) -> None:
        self.memory[self.pc & 63] = self.stack.pop()

    def load(self) -> None:
        self.stack.append(self.memory.get(self.pc & 63, 0))


def _dispatch(n: int = 1350) -> int:
    machine = _Machine()
    out = bytearray()
    for i in range(n):
        machine.pc = i
        machine.push(i)
        machine.push(i * 3)
        machine.add()
        machine.store()
        machine.load()
        value = machine.stack.pop()
        if not i & 15:
            out += value.to_bytes(8, "big")
            if len(out) > 256:
                out = bytearray(bytes(out[-32:]))
    return len(out)


def one_pass(clock=time.thread_time) -> float:
    """Processor seconds the calling thread took for the kernel: the
    fastest of ``ROUNDS`` rounds.

    Its own processor time, not the wall clock: a round that waits for
    the interpreter lock while a background flush runs, or is
    descheduled, says nothing about how fast the machine is.  And the
    fastest round, because a slow stretch of the machine lasts seconds
    and slows them all, where a stray interrupt slows one.
    """
    rounds = []
    for _ in range(ROUNDS):
        started = clock()
        _integer_loop()
        _table_rounds()
        _modular_products()
        _dispatch()
        rounds.append(clock() - started)
    return min(rounds)


def slowdown(*passes_s: float) -> float:
    """How much slower than the reference the machine ran over a stretch:
    the mean of the passes timed around it, over ``REFERENCE_S``."""
    return statistics.mean(passes_s) / REFERENCE_S


def at_reference(elapsed_s: float, busy_s: float, slow: float) -> float:
    """What ``elapsed_s`` would have been at reference speed.  Only the
    ``busy_s`` of it in which the system's processor ran scales with the
    machine; waits for a timer or for the disk do not."""
    return elapsed_s - busy_s * (1.0 - 1.0 / slow)


class Speed:
    """The slow-down over consecutive stretches of a run; ``one_pass``
    runs the kernel where the system under test runs."""

    def __init__(self, one_pass):
        self._one_pass = one_pass
        self.passes_s = [one_pass()]

    def since_last(self) -> float:
        """Time a pass now; the slow-down since the pass before it."""
        self.passes_s.append(self._one_pass())
        return slowdown(*self.passes_s[-2:])
