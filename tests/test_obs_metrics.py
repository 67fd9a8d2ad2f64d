"""Metrics registry tests, plus the collectors that absorb the legacy
stat sources (OperationStats, CycleAccountant, EPC, monitor ring)."""

import threading

import pytest

from repro.core.stats import CONTRACT_CALL, GET_STORAGE, OperationStats
from repro.errors import TelemetryError
from repro.obs.collect import (
    MONITOR_RING_DROPPED,
    OP_COUNT,
    OP_SECONDS,
    collect_monitor_ring,
    collect_operation_stats,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.ring import RingBuffer


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("confide_test_total")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_negative_increment_rejected(self, registry):
        with pytest.raises(TelemetryError, match="only go up"):
            registry.counter("confide_test_total").inc(-1)

    def test_set_total_for_pull_collection(self, registry):
        c = registry.counter("confide_test_total", labelnames=("op",))
        c.set_total(41.0, op="Contract Call")
        c.set_total(42.0, op="Contract Call")
        assert c.value(op="Contract Call") == 42.0

    def test_label_family_enforced(self, registry):
        c = registry.counter("confide_test_total", labelnames=("op",))
        with pytest.raises(TelemetryError, match="expects labels"):
            c.inc(op="x", extra="y")
        with pytest.raises(TelemetryError, match="is labeled"):
            c.inc()

    def test_label_values_guarded(self, registry):
        c = registry.counter("confide_test_total", labelnames=("op",))
        with pytest.raises(TelemetryError):
            c.inc(op=b"payload")


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("confide_depth")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value() == 13


class TestHistogram:
    def test_observe_and_snapshot(self, registry):
        h = registry.histogram("confide_latency_seconds",
                               buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(5.555)
        assert snap["counts"] == [1, 1, 1, 1]

    def test_samples_are_cumulative_with_inf(self, registry):
        h = registry.histogram("confide_latency_seconds", buckets=(0.01, 0.1))
        h.observe(0.005)
        h.observe(0.05)
        rows = {(name, labels.get("le")): value
                for name, labels, value in h.samples()}
        assert rows[("confide_latency_seconds_bucket", "0.01")] == 1
        assert rows[("confide_latency_seconds_bucket", "0.1")] == 2
        assert rows[("confide_latency_seconds_bucket", "+Inf")] == 2
        assert rows[("confide_latency_seconds_count", None)] == 2


class TestRegistry:
    def test_get_or_create_returns_same_metric(self, registry):
        assert registry.counter("confide_x_total") is registry.counter(
            "confide_x_total"
        )

    def test_kind_conflict_rejected(self, registry):
        registry.counter("confide_x_total")
        with pytest.raises(TelemetryError, match="already registered"):
            registry.gauge("confide_x_total")

    def test_labelname_conflict_rejected(self, registry):
        registry.counter("confide_x_total", labelnames=("op",))
        with pytest.raises(TelemetryError, match="already registered"):
            registry.counter("confide_x_total", labelnames=("engine",))

    def test_sample_dict_keys(self, registry):
        registry.counter("confide_x_total", labelnames=("op",)).inc(op="call")
        samples = registry.sample_dict()
        assert samples == {'confide_x_total{op="call"}': 1.0}


class TestOperationStatsThreadSafety:
    def test_concurrent_record_loses_nothing(self):
        stats = OperationStats()
        per_thread, num_threads = 1000, 8

        def worker():
            for _ in range(per_thread):
                stats.record(CONTRACT_CALL, 0.001)
                stats.record(GET_STORAGE, 0.0005)

        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = per_thread * num_threads
        assert stats.count(CONTRACT_CALL) == expected
        assert stats.count(GET_STORAGE) == expected
        assert stats.duration_ms(CONTRACT_CALL) == pytest.approx(
            expected * 1.0, rel=1e-6
        )

    def test_operation_stats_hammer(self):
        stats = OperationStats()

        def worker():
            for _ in range(500):
                stats.record("op", 0.001)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.count("op") == 8 * 500
        assert stats.duration_ms("op") == pytest.approx(8 * 500 * 1.0)

    def test_snapshot_is_consistent_copy(self):
        stats = OperationStats()
        stats.record(CONTRACT_CALL, 0.5)
        durations, counts = stats.snapshot()
        stats.record(CONTRACT_CALL, 0.5)
        assert durations[CONTRACT_CALL] == 0.5
        assert counts[CONTRACT_CALL] == 1


class TestCollectors:
    def test_operation_stats_absorbed(self, registry):
        stats = OperationStats()
        stats.record(CONTRACT_CALL, 0.25)
        stats.record(CONTRACT_CALL, 0.25)
        collect_operation_stats(registry, stats, engine="confidential")
        seconds = registry.counter(OP_SECONDS, labelnames=("engine", "op"))
        counts = registry.counter(OP_COUNT, labelnames=("engine", "op"))
        assert seconds.value(engine="confidential", op=CONTRACT_CALL) == 0.5
        assert counts.value(engine="confidential", op=CONTRACT_CALL) == 2

    def test_collection_is_idempotent(self, registry):
        stats = OperationStats()
        stats.record(CONTRACT_CALL, 0.25)
        collect_operation_stats(registry, stats, engine="confidential")
        collect_operation_stats(registry, stats, engine="confidential")
        counts = registry.counter(OP_COUNT, labelnames=("engine", "op"))
        assert counts.value(engine="confidential", op=CONTRACT_CALL) == 1

    def test_monitor_ring_dropped_surfaced(self, registry):
        ring = RingBuffer(2)
        for i in range(5):
            ring.put(f"status {i}")
        collect_monitor_ring(registry, ring)
        dropped = registry.counter(MONITOR_RING_DROPPED)
        assert dropped.value() == 3

    def test_monitor_ring_dropped_from_live_monitor(self, registry):
        from repro.tee.enclave import Enclave, Platform
        from repro.tee.monitor import EnclaveMonitor

        enclave = Enclave(Platform(), "mon-test")
        monitor = EnclaveMonitor(enclave, capacity=4)
        for i in range(10):
            monitor.emit_exitless(f"status {i}")
        collect_monitor_ring(registry, monitor.ring)
        assert registry.counter(MONITOR_RING_DROPPED).value() == 6
        # Draining keeps the cumulative drop count.
        monitor.poll()
        collect_monitor_ring(registry, monitor.ring)
        assert registry.counter(MONITOR_RING_DROPPED).value() == 6
