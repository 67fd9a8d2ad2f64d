"""Compare two result documents of ``run.py --out`` under the bounds of
``BENCHMARK.json``.

    python benchmarks/e2e/compare.py BASE.json NEW.json

One row per workload × end-to-end metric: the base median, the new
median, their ratio (new / base), and a verdict.  ``regressed`` means the
new median is worse than the base by more than the metric's bound;
``unresolved`` means the run-to-run spread of either side (distance
between the quartiles over the median, four runs or more) is wider than
the bound, so the row proves nothing either way.  ``failed_share`` may
not rise at all.  Where both documents ran the consortium rig with the
same seed, its exact counts (blocks, WAL bytes, final state root) must
be identical.  Exit code 1 if any row regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))


def spread(values: list[float]) -> float | None:
    """(Q3 − Q1) / median, as the driver takes it; ``None`` under 4 runs."""
    if len(values) < 4:
        return None
    median = statistics.median(values)
    if not median:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> tuple[float, float, float, str]:
    """(base median, new median, ratio, verdict) for one metric."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    ratio = new_median / base_median if base_median else float("inf")
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    if worse_by > bound:
        word = "regressed"
    elif spreads and max(spreads) > bound:
        word = "unresolved"
    else:
        word = "ok"
    return base_median, new_median, ratio, word


def untraced_runs(document: dict) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for run in document["runs"]:
        if not run["traced"]:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def compare(base_doc: dict, new_doc: dict, spec: dict) -> list[tuple]:
    """Rows ``(workload, metric, base, new, ratio, verdict)``."""
    rows = []
    base_runs, new_runs = untraced_runs(base_doc), untraced_runs(new_doc)
    for workload in (w["name"] for w in spec["workloads"]):
        base, new = base_runs.get(workload), new_runs.get(workload)
        if not base or not new:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            rows.append((workload, name, *verdict(
                [run["end_to_end"][name] for run in base],
                [run["end_to_end"][name] for run in new],
                metric["better"], metric["bound"])))
        failed_base = max(run["failed_share"] for run in base)
        failed_new = max(run["failed_share"] for run in new)
        rows.append((workload, "failed_share", failed_base, failed_new,
                     float("nan"),
                     "regressed" if failed_new > failed_base else "ok"))
        if not all(run["correct"] for run in new):
            rows.append((workload, "output checks", 1.0, 0.0, 0.0,
                         "regressed"))
        rows += _exact(workload, base, new)
    return rows


def _exact(workload: str, base: list[dict], new: list[dict]) -> list[tuple]:
    """Single-threaded rigs repeat their counts exactly for one seed."""
    rows = []
    by_seed = {run["seed"]: run for run in base if run["rig"] == "consortium"}
    for run in new:
        twin = by_seed.get(run["seed"])
        if twin is None or run["rig"] != "consortium":
            continue
        for name, value in run["exact"].items():
            same = value == twin["exact"][name]
            rows.append((workload, f"exact.{name} (seed {run['seed']})",
                         twin["exact"][name], value, 1.0 if same else 0.0,
                         "ok" if same else "regressed"))
    return rows


def _shown(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    text = str(value)
    return text if len(text) <= 14 else text[:12] + ".."


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    documents = []
    for path in argv[1:]:
        with open(path, encoding="utf-8") as fh:
            documents.append(json.load(fh))
    rows = compare(documents[0], documents[1], spec)
    print(f"{'workload':20s} {'metric':34s} {'base':>14s} {'new':>14s} "
          f"{'new/base':>9s}  verdict")
    for workload, metric, base, new, ratio, word in rows:
        print(f"{workload:20s} {metric:34s} {_shown(base):>14s} "
              f"{_shown(new):>14s} {ratio:9.3f}  {word}")
    regressed = sum(1 for row in rows if row[-1] == "regressed")
    print(f"{len(rows)} rows, {regressed} regressed, "
          f"{sum(1 for row in rows if row[-1] == 'unresolved')} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
