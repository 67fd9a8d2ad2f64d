"""Bench regression gates: compare fresh bench JSON against a baseline.

CI runs the storage bench fresh, then feeds the result here together
with the checked-in ``BENCH_storage.json`` baseline (docs/storage.md).
The comparison fails the build when:

- an LSM ``block_commit_ms`` p50 or ``reopen_ms`` regresses
  past ``tolerance`` × baseline — wall-clock gates, so the tolerance is
  generous (default 1.6×) to absorb runner variation.

Every report records the runner's ``cpu_count`` next to the baseline's so
a cross-machine comparison is visible in the CI log.
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_TOLERANCE = 1.6


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
    return failures, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.regression",
        description="compare fresh bench JSON against checked-in baselines")
    parser.add_argument("--storage", metavar="FRESH", required=True,
                        help="fresh storage bench JSON")
    parser.add_argument("--storage-baseline", metavar="BASE",
                        default="BENCH_storage.json")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="wall-clock regression factor "
                             "(default %(default)s)")
    args = parser.parse_args(argv)
    failures, lines = check_storage(_load(args.storage),
                                    _load(args.storage_baseline),
                                    tolerance=args.tolerance)
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
