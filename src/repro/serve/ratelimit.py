"""Per-client token-bucket admission (the gateway's first gate).

One bucket per client identity: ``burst`` tokens deep, refilled at
``rate`` tokens per second.  The clock is injectable so the rate-limit
tests can drive refill behaviour deterministically instead of sleeping.
"""

from __future__ import annotations

import threading
import time


class TokenBucket:
    """Classic token bucket; thread-safe via the owning limiter's lock."""

    __slots__ = ("rate", "burst", "tokens", "updated_at")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated_at = now

    def allow(self, now: float, cost: float = 1.0) -> bool:
        """Take ``cost`` tokens if available; refill for elapsed time."""
        elapsed = now - self.updated_at
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
            self.updated_at = now
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False


class RateLimiter:
    """Keyed token buckets with a bounded client table.

    ``rate <= 0`` disables limiting entirely (every request allowed).
    The table is capped so an attacker rotating client ids cannot grow
    gateway memory without bound: past ``max_clients`` the least
    recently active bucket is evicted (a returning client simply starts
    from a full burst again — strictly more permissive, never less).
    """

    def __init__(self, rate: float, burst: float,
                 clock=time.monotonic, max_clients: int = 10_000):
        if burst <= 0:
            burst = 1.0
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self.max_clients = max_clients
        self._buckets: dict[str, TokenBucket] = {}
        self._lock = threading.Lock()
        self.denied_total = 0

    @property
    def enabled(self) -> bool:
        return self.rate > 0

    def allow(self, client: str, cost: float = 1.0) -> bool:
        if not self.enabled:
            return True
        now = self.clock()
        with self._lock:
            bucket = self._buckets.pop(client, None)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, now)
                if len(self._buckets) >= self.max_clients:
                    oldest = next(iter(self._buckets))
                    del self._buckets[oldest]
            # Reinsert at the MRU end (dicts preserve insertion order).
            self._buckets[client] = bucket
            ok = bucket.allow(now, cost)
            if not ok:
                self.denied_total += 1
            return ok

    def __len__(self) -> int:
        return len(self._buckets)
