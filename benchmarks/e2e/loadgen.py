"""Load phases, written once against a small ``Target`` interface.

A target is one client's view of a rig: ``submit``, ``committed``,
``read`` and ``pump``.  On the serve rig a target is a keep-alive HTTP
connection and ``pump`` does nothing (the server beats on its own); on
the consortium rig ``pump`` runs one consensus round on the calling
thread, because that rig has no other thread.

A transaction counts as committed when the system's own count of
committed transactions reaches its place in the acceptance order (pools
are FIFO and one writer submits).  On the serve rig that count is
``chain_status.txs_committed``, which moves only after the block's
storage commit returned; ``get_receipt`` answers earlier than that
(README, known defects), so receipts are fetched after timing.

- :func:`saturate` — windowed closed loop: keep ``window`` transactions
  outstanding and poll the commit count until all are committed.
- :func:`paced` — open loop: every operation has a due time fixed
  beforehand, is timed from that due time (so a stall charges every
  request it delayed), and the generator's own lateness is recorded.

Both run on the calling thread over one connection: the generator and
the server share one processor and take turns.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

POLL_S = 0.004  # between commit polls that found nothing new
SPIN_S = 0.0002  # spin, not sleep, this close to a due time (timer slack)
RECEIPT_TIMEOUT_S = 30.0
MIN_TAIL = 10  # samples a reported percentile keeps beyond it


def supported_percentile(samples: int, wanted: float) -> float:
    """The highest percentile ≤ ``wanted`` with at least ``MIN_TAIL``
    samples beyond it; never below the median."""
    if samples <= 0:
        return 0.5
    return max(0.5, min(wanted, 1.0 - MIN_TAIL / samples))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (not required sorted)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    if q == 0.5:
        return statistics.median(ordered)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class Tally:
    """What happened to every operation attempted in the timed phases."""

    attempted: int = 0
    accepted: int = 0
    refused: int = 0  # backpressure, rate limit, shutting down
    errors: int = 0  # any other RPC or transport error
    missing_receipts: int = 0  # accepted, no receipt within the timeout
    unsuccessful: int = 0  # receipt opened with success=False
    reads: int = 0
    failed_reads: int = 0
    polls: int = 0

    @property
    def failed(self) -> int:
        return (self.refused + self.errors + self.missing_receipts
                + self.unsuccessful + self.failed_reads)

    @property
    def operations(self) -> int:
        return self.attempted + self.reads

    @property
    def failed_share(self) -> float:
        return self.failed / self.operations if self.operations else 0.0


@dataclass
class PhaseResult:
    committed: list = field(default_factory=list)  # SealedTx, commit order
    elapsed_s: float = 0.0
    commit_latencies_s: list[float] = field(default_factory=list)
    read_latencies_s: list[float] = field(default_factory=list)
    lags_s: list[float] = field(default_factory=list)  # sent − due


def _submit(target, sealed, tally: Tally) -> bool:
    tally.attempted += 1
    outcome = target.submit(sealed)
    if outcome == "accepted":
        tally.accepted += 1
        target.accepted += 1
        return True
    if outcome == "refused":
        tally.refused += 1
    else:
        tally.errors += 1
    return False


class _Waiting(NamedTuple):
    sealed: object
    place: int  # in the target's acceptance order, from 1
    due: float  # paced phase: when it was due, on the phase clock
    at: float  # when it was accepted


def _collect(target, waiting: deque, tally: Tally, now: float) -> list:
    """Poll the commit count once and pop what it covers; a head that
    has waited past the timeout is dropped and counted as missing."""
    done: list[_Waiting] = []
    if not waiting:
        return done
    tally.polls += 1
    count = target.committed()
    while waiting:
        head = waiting[0]
        if head.place <= count:
            done.append(waiting.popleft())
        elif now - head.at > RECEIPT_TIMEOUT_S:
            tally.missing_receipts += 1
            waiting.popleft()
        else:
            break
    return done


def saturate(target, load: list, window: int, tally: Tally,
             clock=time.perf_counter, sleep=time.sleep) -> PhaseResult:
    """Commit all of ``load`` as fast as the system takes it."""
    result = PhaseResult()
    waiting: deque = deque()
    cursor = 0
    started = clock()
    while cursor < len(load) or waiting:
        while cursor < len(load) and len(waiting) < window:
            sealed = load[cursor]
            cursor += 1
            if _submit(target, sealed, tally):
                waiting.append(
                    _Waiting(sealed, target.accepted, 0.0, clock()))
        progressed = target.pump()
        done = _collect(target, waiting, tally, clock())
        result.committed += [entry.sealed for entry in done]
        if not (progressed or done):
            sleep(POLL_S)
    result.elapsed_s = clock() - started
    return result


def spread(count: int, duration_s: float) -> list[float]:
    """Due times (seconds from segment start) of ``count`` operations
    evenly spread over ``duration_s``, half a gap in from either end."""
    gap = duration_s / count if count else 0.0
    return [(i + 0.5) * gap for i in range(count)]


def paced(target, tally: Tally, started: float, writes: list = (),
          write_due: list[float] = (), read_keys: list = (),
          read_due: list[float] = (),
          clock=time.perf_counter, sleep=time.sleep) -> PhaseResult:
    """Send each write and read at its due time; time it from then.

    ``started`` is the phase's zero on ``clock``; several targets may
    run their own share of one phase against the same zero.
    """
    result = PhaseResult()
    waiting: deque = deque()
    w = r = 0
    while w < len(writes) or r < len(read_keys) or waiting:
        now = clock() - started
        next_write = write_due[w] if w < len(writes) else float("inf")
        next_read = read_due[r] if r < len(read_keys) else float("inf")
        due = min(next_write, next_read)
        if due <= now:
            result.lags_s.append(now - due)
            if next_write <= next_read:
                sealed = writes[w]
                w += 1
                if _submit(target, sealed, tally):
                    waiting.append(
                        _Waiting(sealed, target.accepted, due, clock()))
            else:
                key = read_keys[r]
                r += 1
                tally.reads += 1
                if target.read(key) is None:
                    tally.failed_reads += 1
                else:
                    result.read_latencies_s.append(clock() - started - due)
            continue
        progressed = target.pump()
        done = _collect(target, waiting, tally, clock())
        found = clock() - started
        for entry in done:
            result.commit_latencies_s.append(found - entry.due)
            result.committed.append(entry.sealed)
        wait = due - (clock() - started)
        if not (progressed or done) and wait > SPIN_S:
            sleep(min(POLL_S, wait - SPIN_S))
    result.elapsed_s = clock() - started
    return result
