"""Unified observability: confidentiality-safe tracing, metrics, exporters.

The subsystem the rest of the codebase reports through (see
``docs/observability.md``):

- :mod:`repro.obs.trace` — hierarchical span tracer (wall-clock +
  modeled cycles) buffered on the exit-less ring path;
- :mod:`repro.obs.metrics` — readers that turn the counters each layer
  keeps (OperationStats, CycleAccountant, EPC, code cache, pools, LSM
  store, fuzz campaigns, ...) into metric samples at scrape time;
- :mod:`repro.obs.export` — Prometheus text exposition and Chrome
  trace-event JSON;
- :mod:`repro.obs.guard` — the allowlist that keeps application
  plaintext out of all of it.
"""

from repro.obs import export, guard, metrics
from repro.obs.guard import guard_field, guard_fields, guard_name
from repro.obs.ring import RingBuffer
from repro.obs.trace import NULL_SPAN, Span, Tracer, get_tracer

__all__ = [
    "NULL_SPAN",
    "RingBuffer",
    "Span",
    "Tracer",
    "export",
    "get_tracer",
    "guard",
    "guard_field",
    "guard_fields",
    "guard_name",
    "metrics",
]
