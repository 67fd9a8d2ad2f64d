"""Exit-less enclave monitoring (paper §5.3, "Improved enclave's monitor
system").

Status cannot be read out of an enclave without crossing the boundary;
doing an ocall per status line would be prohibitively expensive.  CONFIDE
implements an Eleos-style exit-less call: the enclave appends status
records into a lock-free ring buffer living in *untrusted* memory, and an
untrusted polling thread drains it asynchronously.

The simulation keeps the two cost paths honest:

- :meth:`EnclaveMonitor.emit_exitless` appends to the ring buffer without
  charging a transition;
- :meth:`EnclaveMonitor.emit_ocall` charges a full ocall, so benchmarks
  can show why the exit-less design matters.

Only error/status strings cross — never application data (paper: "The
status information contains only error messages which are not related to
any application data").  The ring buffer itself lives in
:mod:`repro.obs.ring` so the span tracer shares the identical exit-less
path.  ``ring.dropped`` counts status records the poller lost; no node
owns a monitor, so it is not exported as a metric (the tracer ring's is,
as ``confide_trace_ring_dropped_total``).
"""

from __future__ import annotations

from repro.obs.ring import RingBuffer
from repro.tee.enclave import Enclave

__all__ = ["EnclaveMonitor"]


class EnclaveMonitor:
    """Status pipeline between one enclave and the host monitor system."""

    def __init__(self, enclave: Enclave, capacity: int = 1024):
        self.enclave = enclave
        self.ring = RingBuffer(capacity)
        self._collected: list[str] = []
        enclave.register_ocall("monitor_emit", self._ocall_sink)

    def _ocall_sink(self, message: bytes):
        self._collected.append(message.decode())

    def emit_exitless(self, message: str) -> None:
        """In-enclave status emit via the exit-less path (no transition)."""
        self.ring.put(message)

    def emit_ocall(self, message: str) -> None:
        """In-enclave status emit via a full ocall (the expensive baseline)."""
        self.enclave.ocall("monitor_emit", message.encode())

    def poll(self) -> list[str]:
        """Untrusted poller: drain the ring into the monitor system."""
        drained = self.ring.drain()
        self._collected.extend(drained)
        return drained

    @property
    def collected(self) -> list[str]:
        return list(self._collected)
