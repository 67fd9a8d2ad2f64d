"""Text formatting for the paper-style tables and figure series."""

from __future__ import annotations


def format_table(
    headers: list[str], rows: list[list[str]], title: str = ""
) -> str:
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_fig10(series: dict[str, dict[str, float]]) -> str:
    configs = list(next(iter(series.values())).keys())
    rows = [
        [name] + [f"{series[name][c]:8.2f}" for c in configs]
        for name in series
    ]
    return format_table(
        ["workload"] + configs, rows,
        title="Figure 10 — throughput (tx/s) on 4 synthetic workloads",
    )


def format_fig11(points) -> str:
    rows = [
        [
            str(p.num_nodes), str(p.lanes), str(p.num_zones),
            f"{p.tps:8.2f}", f"{p.exec_makespan_s * 1000:7.1f}",
            f"{p.consensus_round_s * 1000:7.2f}",
        ]
        for p in points
    ]
    return format_table(
        ["nodes", "lanes", "zones", "tps", "exec(ms)", "order(ms)"],
        rows,
        title="Figure 11 — scalability with the ABS workload",
    )


def format_table1(rows) -> str:
    body = [
        [r.method, f"{r.duration_ms:8.3f}", str(r.count), f"{r.ratio * 100:5.1f}%"]
        for r in rows
    ]
    return format_table(
        ["Method", "Duration (ms)", "Counts", "Ratio"],
        body,
        title="Table 1 — operations of the SCF-AR contract (per transfer)",
    )


def format_fig12(series: list[tuple[str, float]]) -> str:
    base = series[0][1] if series else 1.0
    rows = [
        [label, f"{tps:8.2f}", f"{tps / base:5.2f}x"]
        for label, tps in series
    ]
    return format_table(
        ["configuration", "tps", "vs baseline"],
        rows,
        title="Figure 12 — optimizations on the ABS contract (cumulative)",
    )


def format_sec64(metrics) -> str:
    rows = [
        ["block execution (avg)", f"{metrics.block_exec_ms:7.2f} ms", "~30 ms"],
        ["empty block", f"{metrics.empty_block_ms:7.2f} ms", "~5 ms"],
        ["block write (cloud SSD)", f"{metrics.block_write_ms:7.2f} ms", "~6 ms"],
    ]
    return format_table(
        ["metric", "measured", "paper"],
        rows,
        title="§6.4 — production ABS metrics",
    )
