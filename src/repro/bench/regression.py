"""Bench regression gates: compare fresh bench JSON against a baseline.

CI runs the storage and parallel benches fresh, then feeds the results
here together with the checked-in ``BENCH_storage.json`` /
``BENCH_parallel.json`` baselines (docs/storage.md, docs/parallelism.md).
The comparison fails the build when:

- an LSM ``block_commit_ms`` p50 or ``reopen_ms`` regresses
  past ``tolerance`` × baseline — wall-clock gates, so the tolerance is
  generous (default 1.6×) to absorb runner variation;
- WAL group commit stops coalescing: with concurrent committers on a
  ``sync`` store the bench must observe strictly fewer than one fsync per
  commit (serial is exactly one by construction);
- the pre-verification pool loses determinism
  (``deterministic_equivalent``), or — only where the cores exist
  (``cpu_count > 1``) — it no longer beats serial.

Every report records the runner's ``cpu_count`` next to the baseline's so
a cross-machine comparison is visible in the CI log.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

DEFAULT_TOLERANCE = 1.6

# Concurrent committers on a sync store must share fsyncs.  Serial is
# 1.0 fsync/commit by construction; anything >= this bound means the
# group-commit leader election has stopped coalescing.
MAX_CONCURRENT_FSYNCS_PER_COMMIT = 0.95


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_storage(fresh: dict, baseline: dict,
                  tolerance: float = DEFAULT_TOLERANCE):
    """Return ``(failures, report_lines)`` for a storage bench pair."""
    failures: list[str] = []
    lines: list[str] = []
    lines.append(
        "storage: fresh cpu_count=%s baseline cpu_count=%s"
        % (fresh.get("cpu_count", "?"), baseline.get("cpu_count", "?")))
    for backend, base_entry in sorted(baseline.get("backends", {}).items()):
        entry = fresh.get("backends", {}).get(backend)
        if entry is None:
            failures.append("storage: backend %r missing from fresh run"
                            % backend)
            continue
        base_p50 = base_entry["block_commit_ms"]["p50"]
        p50 = entry["block_commit_ms"]["p50"]
        lines.append("  %-10s block p50 %8.2f ms (baseline %8.2f ms)"
                     % (backend, p50, base_p50))
        if p50 > base_p50 * tolerance:
            failures.append(
                "storage: %s block_commit p50 regressed %.2f -> %.2f ms "
                "(> %.1fx baseline)" % (backend, base_p50, p50, tolerance))
        if "reopen_ms" in base_entry and "reopen_ms" in entry:
            base_reopen = base_entry["reopen_ms"]
            reopen = entry["reopen_ms"]
            lines.append("  %-10s reopen    %8.2f ms (baseline %8.2f ms)"
                         % (backend, reopen, base_reopen))
            if reopen > base_reopen * tolerance:
                failures.append(
                    "storage: %s reopen regressed %.2f -> %.2f ms "
                    "(> %.1fx baseline)"
                    % (backend, base_reopen, reopen, tolerance))
    gc = fresh.get("group_commit")
    if gc is not None:
        serial = gc["serial"]["fsyncs_per_commit"]
        concurrent = gc["concurrent"]["fsyncs_per_commit"]
        lines.append(
            "  group commit: serial %.2f fsyncs/commit, %d threads %.2f"
            % (serial, gc["num_threads"], concurrent))
        if concurrent >= MAX_CONCURRENT_FSYNCS_PER_COMMIT:
            failures.append(
                "storage: group commit stopped coalescing — %.2f "
                "fsyncs/commit with %d concurrent committers (want < %.2f)"
                % (concurrent, gc["num_threads"],
                   MAX_CONCURRENT_FSYNCS_PER_COMMIT))
    elif baseline.get("group_commit") is not None:
        failures.append("storage: group_commit section missing from "
                        "fresh run")
    return failures, lines


def check_parallel(fresh: dict, baseline: dict):
    """Return ``(failures, report_lines)`` for a pre-verification pool
    bench pair."""
    failures: list[str] = []
    lines: list[str] = []
    cpu_count = fresh.get("cpu_count") or os.cpu_count() or 1
    lines.append("parallel: fresh cpu_count=%s baseline cpu_count=%s"
                 % (cpu_count, baseline.get("cpu_count", "?")))
    preverify = fresh.get("preverify", {})
    lines.append("  preverify speedup %.2f  queue depth peak %s"
                 % (preverify.get("speedup", 0.0),
                    preverify.get("queue_depth_peak", "?")))
    if preverify.get("deterministic_equivalent") is not True:
        failures.append("parallel: pooled pre-verification lost "
                        "deterministic equivalence with the serial path")
    # Speedup expectations only hold where the cores exist; a 1-cpu
    # runner records its numbers but is not gated on them.
    if cpu_count > 1 and preverify.get("speedup", 0.0) <= 1.0:
        failures.append(
            "parallel: preverify speedup %.2f <= 1.0 on a %d-cpu "
            "runner" % (preverify.get("speedup", 0.0), cpu_count))
    return failures, lines


# The acceptance floor for horizontal scale-out: 4 shards must model at
# least this multiple of the 1-shard aggregate committed TPS.
MIN_SHARD_MODELED_SPEEDUP = 1.5


def check_shard(fresh: dict, baseline: dict):
    """Return ``(failures, report_lines)`` for a shard bench pair.

    Gated like BENCH_parallel: the modeled-makespan scaling figure is
    deterministic and always enforced; the threaded wall-clock figure
    is recorded everywhere but only gated where ``cpu_count > 1``.
    """
    failures: list[str] = []
    lines: list[str] = []
    cpu_count = fresh.get("cpu_count") or os.cpu_count() or 1
    lines.append("shard: fresh cpu_count=%s baseline cpu_count=%s"
                 % (cpu_count, baseline.get("cpu_count", "?")))
    for count, entry in sorted(fresh.get("shards", {}).items(),
                               key=lambda kv: int(kv[0])):
        lines.append(
            "  %s shard(s): committed %d, modeled %.1f tps, threaded %.1f tps"
            % (count, entry.get("committed", 0),
               entry.get("modeled_aggregate_tps", 0.0),
               entry.get("threaded_tps", 0.0)))
        cross = entry.get("cross_shard")
        if cross is not None:
            lines.append(
                "    cross-shard: %d bundles committed=%d aborted=%d "
                "(attested=%d quorum=%d)"
                % (cross.get("bundles", 0), cross.get("committed", 0),
                   cross.get("aborted", 0), cross.get("relay_attested", 0),
                   cross.get("relay_quorum", 0)))
            if cross.get("committed", 0) != cross.get("bundles", 0):
                failures.append(
                    "shard: %s/%s cross-shard bundles committed on a "
                    "fault-free bench run"
                    % (cross.get("committed", 0), cross.get("bundles", 0)))
    scaling = fresh.get("scaling")
    if scaling is None:
        failures.append("shard: fresh run has no scaling section "
                        "(needs at least two shard counts)")
    else:
        speedup = scaling.get("modeled_speedup", 0.0)
        lines.append("  modeled speedup %dx->%dx shards: %.2fx (floor %.2fx)"
                     % (scaling.get("baseline_shards", 0),
                        scaling.get("top_shards", 0),
                        speedup, MIN_SHARD_MODELED_SPEEDUP))
        if speedup < MIN_SHARD_MODELED_SPEEDUP:
            failures.append(
                "shard: modeled aggregate TPS at %s shards is %.2fx the "
                "%s-shard baseline (< %.2fx floor)"
                % (scaling.get("top_shards", "?"), speedup,
                   scaling.get("baseline_shards", "?"),
                   MIN_SHARD_MODELED_SPEEDUP))
        base_scaling = baseline.get("scaling", {})
        if base_scaling:
            base_speedup = base_scaling.get("modeled_speedup", 0.0)
            if speedup < base_speedup * 0.6:
                failures.append(
                    "shard: modeled speedup regressed %.2fx -> %.2fx "
                    "(< 0.6x baseline)" % (base_speedup, speedup))
    # Threaded wall-clock only means anything with real cores under it.
    if cpu_count > 1 and scaling is not None:
        top = str(scaling.get("top_shards", ""))
        base = str(scaling.get("baseline_shards", ""))
        shards = fresh.get("shards", {})
        if top in shards and base in shards:
            top_tps = shards[top].get("threaded_tps", 0.0)
            base_tps = shards[base].get("threaded_tps", 0.0)
            if base_tps and top_tps <= base_tps:
                failures.append(
                    "shard: threaded aggregate TPS does not scale on a "
                    "%d-cpu runner (%.1f -> %.1f)"
                    % (cpu_count, base_tps, top_tps))
    return failures, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.regression",
        description="compare fresh bench JSON against checked-in baselines")
    parser.add_argument("--storage", metavar="FRESH",
                        help="fresh storage bench JSON")
    parser.add_argument("--storage-baseline", metavar="BASE",
                        default="BENCH_storage.json")
    parser.add_argument("--parallel", metavar="FRESH",
                        help="fresh parallel bench JSON")
    parser.add_argument("--parallel-baseline", metavar="BASE",
                        default="BENCH_parallel.json")
    parser.add_argument("--shard", metavar="FRESH",
                        help="fresh shard bench JSON")
    parser.add_argument("--shard-baseline", metavar="BASE",
                        default="BENCH_shard.json")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="wall-clock regression factor "
                             "(default %(default)s)")
    args = parser.parse_args(argv)
    if not args.storage and not args.parallel and not args.shard:
        parser.error(
            "nothing to compare: pass --storage, --parallel, and/or --shard")

    failures: list[str] = []
    if args.storage:
        fails, lines = check_storage(_load(args.storage),
                                     _load(args.storage_baseline),
                                     tolerance=args.tolerance)
        failures.extend(fails)
        print("\n".join(lines))
    if args.parallel:
        fails, lines = check_parallel(_load(args.parallel),
                                      _load(args.parallel_baseline))
        failures.extend(fails)
        print("\n".join(lines))
    if args.shard:
        fails, lines = check_shard(_load(args.shard),
                                   _load(args.shard_baseline))
        failures.extend(fails)
        print("\n".join(lines))
    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print("  - " + failure, file=sys.stderr)
        return 1
    print("\nbench regression gate passed")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
