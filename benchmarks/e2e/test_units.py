"""Unit tests of the benchmark's own arithmetic, plus a tiny-N smoke of
all four workloads.  Run explicitly: ``pytest benchmarks/e2e`` (tier-1
collects ``tests/`` only).
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
import compare  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, self_times, summarize  # noqa: E402


# -- percentile rule -------------------------------------------------------


def test_supported_percentile_keeps_ten_samples_beyond():
    assert loadgen.supported_percentile(200, 0.95) == 0.95
    assert loadgen.supported_percentile(1000, 0.90) == 0.90
    assert loadgen.supported_percentile(100, 0.95) == pytest.approx(0.90)
    assert loadgen.supported_percentile(40, 0.95) == pytest.approx(0.75)
    # Under 20 samples not even the median has ten beyond it: report it
    # anyway, never something lower.
    assert loadgen.supported_percentile(15, 0.95) == 0.5
    assert loadgen.supported_percentile(0, 0.95) == 0.5


def test_spread_puts_operations_half_a_gap_in_from_either_end():
    assert loadgen.spread(4, 2.0) == [0.25, 0.75, 1.25, 1.75]
    assert loadgen.spread(1, 0.2) == [0.1]
    assert loadgen.spread(0, 1.0) == []


def test_percentile_is_nearest_rank_and_median_is_exact():
    values = [float(v) for v in range(1, 101)]
    assert loadgen.percentile(values, 0.90) == 91.0
    assert loadgen.percentile(values, 0.5) == 50.5
    assert loadgen.percentile([3.0], 0.90) == 3.0


# -- span self time --------------------------------------------------------


def _span(span_id, parent, name, start, end, n=None):
    return Span(span_id, parent, name, 1, start, end, "saturate", None, n)


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span(1, 0, "gateway.produce_block", 0.0, 10.0, n=3),
        _span(2, 1, "node.preverify_pending", 1.0, 3.0),
        _span(3, 1, "node.apply_transactions", 4.0, 9.0),
        _span(4, 3, "executor.execute_block", 4.5, 6.5),
        _span(5, 3, "kv.items", 6.0, 8.0),  # overlaps its sibling by 0.5
        _span(6, 3, "kv.write_batch", 8.5, 9.5),  # runs past its parent
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 2.0 - 5.0)
    # Children cover 4.5–8.0 and 8.5–9.0 of the 4.0–9.0 parent.
    assert selfs[3] == pytest.approx(5.0 - 3.5 - 0.5)
    assert selfs[4] == pytest.approx(2.0)
    summary = summarize(spans)["saturate"]
    assert summary["gateway.produce_block"]["hits"] == 1
    assert summary["node.apply_transactions>kv.items"]["count"] == 1
    assert summary["kv.items"]["total_s"] == pytest.approx(2.0)


# -- open-loop due-time accounting ----------------------------------------------


class FakeClock:
    """Advances on ``sleep``, on the fake target's calls, and by a
    microsecond per reading (the generator spins just before a due time)."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1e-6
        return self.now

    def sleep(self, seconds):
        self.now += max(seconds, 1e-4)


class StallingTarget:
    """Commits a write 10 ms after accepting it; the submit of write
    ``stall_at`` blocks for ``stall_s``."""

    def __init__(self, clock, stall_at, stall_s):
        self.clock, self.stall_at, self.stall_s = clock, stall_at, stall_s
        self.accepted = 0
        self.commit_times: list[float] = []

    def submit(self, sealed):
        self.clock.now += self.stall_s if sealed == self.stall_at else 0.001
        self.commit_times.append(self.clock.now + 0.010)
        return "accepted"

    def committed(self):
        return sum(1 for at in self.commit_times if at <= self.clock.now)

    def read(self, key):
        self.clock.now += 0.001
        return b"value"

    def pump(self):
        return False


def test_paced_times_from_due_time_and_records_generator_lag():
    clock = FakeClock()
    target = StallingTarget(clock, stall_at=2, stall_s=0.5)
    due = [i / 10.0 for i in range(10)]
    tally = loadgen.Tally()
    result = loadgen.paced(target, tally, 0.0, writes=list(range(10)),
                           write_due=due, clock=clock, sleep=clock.sleep)
    assert tally.attempted == tally.accepted == 10
    assert len(result.commit_latencies_s) == 10
    # Write 2 was due at 0.2 and its submit stalled 0.5 s: it is charged
    # the stall, and so is every write that came due while it lasted.
    assert result.commit_latencies_s[2] == pytest.approx(0.51, abs=0.01)
    assert result.commit_latencies_s[3] > 0.4  # due 0.3, sent ~0.7
    assert result.commit_latencies_s[6] > 0.1  # due 0.6, sent ~0.7
    assert result.commit_latencies_s[9] < 0.03  # caught up again
    # A closed loop would have timed write 3 from when it was sent.
    assert max(result.lags_s) == pytest.approx(0.4, abs=0.01)
    assert min(result.lags_s) < 0.005


def test_paced_reads_are_timed_from_due_time_too():
    clock = FakeClock()
    target = StallingTarget(clock, stall_at=0, stall_s=0.3)
    tally = loadgen.Tally()
    result = loadgen.paced(target, tally, 0.0, writes=[0], write_due=[0.0],
                           read_keys=["k"] * 5,
                           read_due=[0.0, 0.1, 0.2, 0.3, 0.4],
                           clock=clock, sleep=clock.sleep)
    assert tally.reads == 5 and tally.failed_reads == 0
    assert result.read_latencies_s[0] == pytest.approx(0.301, abs=0.005)
    assert result.read_latencies_s[4] < 0.01


def test_saturate_keeps_the_window_and_commits_everything():
    clock = FakeClock()
    target = StallingTarget(clock, stall_at=-1, stall_s=0.0)
    tally = loadgen.Tally()
    result = loadgen.saturate(target, list(range(50)), 8, tally,
                              clock=clock, sleep=clock.sleep)
    assert result.committed == list(range(50))
    assert tally.attempted == tally.accepted == 50 and tally.failed == 0


# -- failed share ----------------------------------------------------------------


def test_failed_share_counts_every_kind_of_failure_against_attempts():
    tally = loadgen.Tally(attempted=90, accepted=80, refused=6, errors=4,
                          missing_receipts=3, unsuccessful=2, reads=10,
                          failed_reads=1)
    assert tally.failed == 6 + 4 + 3 + 2 + 1
    assert tally.operations == 100
    assert tally.failed_share == pytest.approx(0.16)
    assert loadgen.Tally().failed_share == 0.0


# -- reference speed -----------------------------------------------------------


def test_slowdown_is_the_mean_pass_over_the_reference():
    ref = calibrate.REFERENCE_S
    assert calibrate.slowdown(ref, ref) == pytest.approx(1.0)
    assert calibrate.slowdown(ref, 2 * ref) == pytest.approx(1.5)
    passes = iter([ref, 2 * ref, 2 * ref, ref])
    speed = calibrate.Speed(lambda: next(passes))
    # Each stretch is judged by the passes on either side of it.
    assert speed.since_last() == pytest.approx(1.5)
    assert speed.since_last() == pytest.approx(2.0)
    assert speed.since_last() == pytest.approx(1.5)
    assert speed.passes_s == [ref, 2 * ref, 2 * ref, ref]


def test_one_pass_is_the_fastest_round_on_the_given_clock():
    ticks = iter([0.0, 0.9, 1.0, 1.2, 2.0, 2.5])
    assert calibrate.one_pass(clock=lambda: next(ticks)) == pytest.approx(0.2)


# -- compare ---------------------------------------------------------------------


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [98.0], "higher", 0.10)[3] == "ok"
    assert compare.verdict(steady, [85.0], "higher", 0.10)[3] == "regressed"
    assert compare.verdict(steady, [115.0], "lower", 0.10)[3] == "regressed"
    noisy = [80.0, 120.0, 100.0, 70.0, 130.0]
    assert compare.verdict(noisy, [98.0], "higher", 0.10)[3] == "unresolved"
    assert compare.spread([1.0, 2.0]) is None


# -- smoke -------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_of_the_benchmark(name):
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    tiny = dataclasses.replace(
        workloads.WORKLOADS[name],
        prepopulate=min(workloads.WORKLOADS[name].prepopulate, 12))
    record = run.run_workload(tiny, seed=7, seconds=1.5, traced=True)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] > 0
    assert set(record["end_to_end"]) == {
        m["name"] for m in spec["end_to_end"]}
    assert all(value > 0 for value in record["end_to_end"].values())
    # At reference speed = as measured, over a slow-down the run states.
    low, high = (record["machine"][f"slowdown_{end}"] for end in ("min", "max"))
    for name, measured in record["as_measured"].items():
        ratio = measured / record["end_to_end"][name]
        if name == "committed_tps":
            ratio = 1.0 / ratio
        assert low * 0.999 <= ratio <= high * 1.001, name
    missing = {m["name"] for m in spec["per_layer"]} - set(record["per_layer"])
    assert not missing
    line = run.contract_line(record, spec)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(isinstance(m["value"], (int, float))
               for m in line["metrics"].values())
    if tiny.rig == "consortium":
        assert record["per_layer"]["serve.requests"] is None
        assert line["metrics"]["serve.requests"]["value"] == 0.0
