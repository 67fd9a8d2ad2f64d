"""Benchmark harnesses regenerating every table and figure of §6."""

from repro.bench.figures import (
    FIG10_CONFIGS,
    ProductionMetrics,
    ScalabilityPoint,
    Table1Row,
    fig10_point,
    fig10_series,
    fig11_point,
    fig12_series,
    sec64_metrics,
    table1_rows,
)
from repro.bench.harness import (
    ConfidentialRig,
    PublicRig,
    ThroughputResult,
    build_confidential_rig,
    build_public_rig,
    build_rig,
    run_throughput,
)
from repro.bench import reporting

__all__ = [
    "ConfidentialRig",
    "FIG10_CONFIGS",
    "ProductionMetrics",
    "PublicRig",
    "ScalabilityPoint",
    "Table1Row",
    "ThroughputResult",
    "build_confidential_rig",
    "build_public_rig",
    "build_rig",
    "fig10_point",
    "fig10_series",
    "fig11_point",
    "fig12_series",
    "reporting",
    "run_throughput",
    "sec64_metrics",
    "table1_rows",
]
