"""Exporters: Prometheus text exposition and Chrome trace-event JSON.

- :func:`prometheus_text` renders :mod:`repro.obs.metrics` samples in
  the text exposition format (``# HELP`` / ``# TYPE`` / samples),
  directly scrapeable; :func:`parse_prometheus_text` is the matching
  minimal parser used by tests and the CI smoke step.
- :func:`chrome_trace` renders drained spans as Chrome trace-event JSON
  (``traceEvents`` with complete ``X`` events), loadable in Perfetto /
  ``chrome://tracing``.  Each event's ``args`` carries the span's
  modeled TEE cycles and their microsecond equivalent next to the
  wall-clock ``dur``, so both time axes survive into the trace file.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from repro.obs.guard import guard_field, guard_name
from repro.obs.metrics import Sample
from repro.obs.trace import Span, Tracer

# Reference CPU for converting modeled cycles into trace-arg µs (the
# paper's Xeon E3-1240 v6; matches transitions.CostModel.cpu_ghz).
_REFERENCE_GHZ = 3.7


def _format_value(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def prometheus_text(samples: Iterable[Sample]) -> str:
    """Render samples in the Prometheus text exposition format.

    Samples group into families by name; families print in name order,
    each with its HELP and TYPE line, and a family's samples in the
    order of their label values.  Every name and label passes the
    confidentiality guard here, so a rejected label raises
    :class:`~repro.errors.TelemetryError` before any text is produced.
    """
    families: dict[str, tuple[Sample, dict]] = {}
    for sample in samples:
        guard_name(sample.name)
        labels = tuple(
            (key, str(guard_field(key, value)))
            for key, value in sample.labels.items()
        )
        _, series = families.setdefault(sample.name, (sample, {}))
        series[tuple(value for _, value in labels)] = (labels, sample.value)
    lines: list[str] = []
    for name in sorted(families):
        head, series = families[name]
        lines.append(f"# HELP {name} {head.help}")
        lines.append(f"# TYPE {name} {head.kind}")
        for key in sorted(series):
            labels, value = series[key]
            if labels:
                body = ",".join(
                    f'{label}="{_escape_label(text)}"'
                    for label, text in sorted(labels)
                )
                lines.append(f"{name}{{{body}}} {_format_value(value)}")
            else:
                lines.append(f"{name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Minimal scrape: ``name{labels}`` → value (validation helper)."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"malformed exposition line: {line!r}")
        value = float(value_part)
        samples[name_part] = value
    return samples


def span_to_event(span: Span, pid: int = 1) -> dict:
    """One span → one Chrome trace event dict."""
    args = dict(span.args)
    # An explicitly attached "cycles" attribute (e.g. the per-enclave
    # accountant delta in Enclave.ecall) wins over the tracer-wide
    # cycle-source sample.
    cycles = args.pop("cycles", None)
    if cycles is None:
        cycles = span.cycles
    args["cycles"] = round(cycles, 1)
    args["modeled_us"] = round(cycles / (_REFERENCE_GHZ * 1e3), 3)
    category = span.name.split(".", 1)[0]
    event = {
        "name": span.name,
        "cat": category,
        "pid": pid,
        "tid": span.tid,
        "ts": round(span.start_s * 1e6, 3),
        "args": args,
    }
    if span.duration_s < 0:  # instant event
        event["ph"] = "i"
        event["s"] = "t"
    else:
        event["ph"] = "X"
        event["dur"] = round(span.duration_s * 1e6, 3)
        event["args"]["parent_id"] = span.parent_id
        event["args"]["span_id"] = span.span_id
    return event


def chrome_trace(spans: list[Span], process_name: str = "repro") -> dict:
    """Drained spans → a Chrome trace-event JSON document (as a dict)."""
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    events.extend(
        span_to_event(span) for span in sorted(spans, key=lambda s: s.start_s)
    )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: list[Span],
                       process_name: str = "repro") -> int:
    """Write the trace file; returns the number of span events."""
    document = chrome_trace(spans, process_name)
    with open(path, "w") as f:
        json.dump(document, f, indent=1)
    return len(document["traceEvents"]) - 1


def drain_to_file(tracer: Tracer, path: str) -> int:
    """Drain a tracer's ring and write the Chrome trace in one step."""
    return write_chrome_trace(path, tracer.drain())
