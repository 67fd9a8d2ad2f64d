"""Overwrite-oldest ring buffer — the exit-less telemetry path.

This is the data structure behind the paper's §5.3 "improved enclave's
monitor system": the enclave appends records into a ring living in
untrusted memory and an untrusted poller drains it asynchronously, so
emitting telemetry never pays an enclave transition.  It lives here,
not in :mod:`repro.tee.monitor`, so the span tracer can buffer on the
same path without importing the TEE layer.

Single-producer/single-consumer; when the consumer falls behind, the
oldest records are overwritten and counted in :attr:`RingBuffer.dropped`
(the tracer ring's count is exported by :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class RingBuffer:
    """Single-producer/single-consumer overwrite-oldest ring buffer."""

    capacity: int = 1024
    _slots: list[Any] = field(default_factory=list)
    _head: int = 0  # next write position
    _tail: int = 0  # next read position
    dropped: int = 0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("ring buffer capacity must be positive")
        self._slots = [None] * self.capacity

    def __len__(self) -> int:
        return self._head - self._tail

    def put(self, item: Any) -> None:
        if len(self) == self.capacity:
            self._tail += 1  # overwrite oldest
            self.dropped += 1
        self._slots[self._head % self.capacity] = item
        self._head += 1

    def get(self) -> Any | None:
        if self._tail == self._head:
            return None
        item = self._slots[self._tail % self.capacity]
        self._tail += 1
        return item

    def drain(self) -> list[Any]:
        out = []
        while (item := self.get()) is not None:
            out.append(item)
        return out
