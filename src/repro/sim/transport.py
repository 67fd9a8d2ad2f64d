"""Fault-scheduling message transport over the network latency model.

Wraps :class:`repro.chain.network.NetworkModel` with a simulated-time
delivery queue: ``send`` computes the zone-aware delivery time, applies
the injector's message faults (drop, extra delay, duplication), drops
messages crossing an active partition cut, and multiplies latency for
nodes inside a ``slow`` window.  Deliveries pop in (time, sequence)
order, so delayed messages naturally reorder.

Every payload is byte-scanned by the confidentiality checker *at send
time* — the wire is untrusted, so no canary plaintext may ever appear on
it (T-Protocol envelopes and sealed receipts keep it ciphertext).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.chain.network import NetworkModel
from repro.sim.faults import FaultInjector


@dataclass(frozen=True)
class Message:
    kind: str  # "tx" | "propose" | "sync_req" | "sync_resp"
    src: int  # node id, or -1 for a client
    dst: int
    payload: bytes
    sent_at_s: float


class SimTransport:
    """Deterministic delivery queue with injectable message faults."""

    def __init__(
        self,
        injector: FaultInjector,
        zones: list[int],
        network: NetworkModel = NetworkModel(),
        scanner=None,
    ):
        self.injector = injector
        self.zones = zones
        self.network = network
        self.scanner = scanner  # ConfidentialityChecker or None
        self._queue: list[tuple[float, int, Message]] = []
        self._seq = 0
        self.partition: dict[int, int] | None = None  # node id -> group
        self.slow_until: dict[int, float] = {}
        self.sent = 0
        self.dropped = 0

    # -- fault state -----------------------------------------------------

    def set_partition(self, group_a: tuple[int, ...], group_b: tuple[int, ...]) -> None:
        mapping = {nid: 0 for nid in group_a}
        mapping.update({nid: 1 for nid in group_b})
        self.partition = mapping

    def heal(self) -> None:
        self.partition = None

    def set_slow(self, node_id: int, until_s: float) -> None:
        self.slow_until[node_id] = max(self.slow_until.get(node_id, 0.0), until_s)

    def _is_slow(self, node_id: int, now_s: float) -> bool:
        return self.slow_until.get(node_id, 0.0) > now_s

    def _cut(self, src: int, dst: int) -> bool:
        """Partition cuts node-to-node links; clients reach everyone."""
        if self.partition is None or src < 0:
            return False
        return self.partition.get(src) != self.partition.get(dst)

    def _zone(self, node_id: int) -> int:
        return self.zones[node_id] if node_id >= 0 else self.zones[0]

    # -- sending ---------------------------------------------------------

    def send(self, now_s: float, src: int, dst: int, kind: str, payload: bytes) -> None:
        if self.scanner is not None:
            self.scanner.scan_wire(payload, f"{kind} {src}->{dst}")
        self.sent += 1
        if self._cut(src, dst):
            self.dropped += 1
            return
        dropped, duplicated, extra_s = self.injector.message_fate()
        if dropped:
            self.dropped += 1
            return
        base = self.network.delivery_time(self._zone(src), self._zone(dst), len(payload))
        if self._is_slow(src, now_s) or self._is_slow(dst, now_s):
            base *= self.injector.rates.slow_factor
        message = Message(kind, src, dst, payload, now_s)
        self._push(now_s + base + extra_s, message)
        if duplicated:
            self._push(now_s + base + extra_s + 0.001, message)

    def broadcast(self, now_s: float, src: int, kind: str, payload: bytes,
                  node_ids: list[int]) -> None:
        for dst in node_ids:
            if dst != src:
                self.send(now_s, src, dst, kind, payload)

    def _push(self, at_s: float, message: Message) -> None:
        heapq.heappush(self._queue, (at_s, self._seq, message))
        self._seq += 1

    # -- delivery --------------------------------------------------------

    def due(self, now_s: float) -> list[Message]:
        """Pop every message whose delivery time has arrived."""
        ready: list[Message] = []
        while self._queue and self._queue[0][0] <= now_s:
            _, _, message = heapq.heappop(self._queue)
            ready.append(message)
        return ready
