"""Metric readers: the samples :mod:`repro.obs.metrics` reads from each
source (OperationStats, the tracer ring, a node), and the thread safety
of the OperationStats ledger they read."""

import threading

import pytest

from repro.core.stats import CONTRACT_CALL, GET_STORAGE, OperationStats
from repro.errors import TelemetryError
from repro.obs.export import parse_prometheus_text, prometheus_text
from repro.obs.metrics import (
    Sample,
    node_samples,
    operation_samples,
    tracer_samples,
)
from repro.obs.trace import Tracer


def _page(samples) -> dict[str, float]:
    return parse_prometheus_text(prometheus_text(samples))


class TestCounter:
    def test_label_values_guarded(self):
        payload = Sample("confide_test_total", "counter", "test",
                         {"op": b"payload"}, 1)
        with pytest.raises(TelemetryError, match="payload bytes"):
            prometheus_text([payload])
        # A string on a label the guard does not allowlist is refused too.
        named = Sample("confide_test_total", "counter", "test",
                       {"account": "alice"}, 1)
        with pytest.raises(TelemetryError, match="may not carry a string"):
            prometheus_text([named])


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
    def test_operation_stats_absorbed(self):
        stats = OperationStats()
        stats.record(CONTRACT_CALL, 0.25)
        stats.record(CONTRACT_CALL, 0.25)
        stats.record(GET_STORAGE, 0.125)
        page = _page(operation_samples(stats, "confidential"))
        assert page == {
            'confide_op_seconds_total{engine="confidential",'
            'op="Contract Call"}': 0.5,
            'confide_op_seconds_total{engine="confidential",'
            'op="GetStorage"}': 0.125,
            'confide_op_count_total{engine="confidential",'
            'op="Contract Call"}': 2,
            'confide_op_count_total{engine="confidential",'
            'op="GetStorage"}': 1,
        }

    def test_collection_is_idempotent(self):
        stats = OperationStats()
        stats.record(CONTRACT_CALL, 0.25)
        first = prometheus_text(operation_samples(stats, "confidential"))
        assert prometheus_text(operation_samples(stats, "confidential")) \
            == first
        stats.record(CONTRACT_CALL, 0.25)
        page = _page(operation_samples(stats, "confidential"))
        assert page['confide_op_count_total{engine="confidential",'
                    'op="Contract Call"}'] == 2

    def test_trace_ring_dropped_surfaced(self):
        tracer = Tracer(capacity=2, enabled=True)
        for i in range(5):
            tracer.instant("test.event", index=i)
        page = _page(tracer_samples(tracer))
        assert page["confide_trace_ring_dropped_total"] == 3
        assert page["confide_trace_spans_buffered"] == 2
        # Draining keeps the cumulative drop count.
        tracer.drain()
        page = _page(tracer_samples(tracer))
        assert page["confide_trace_ring_dropped_total"] == 3
        assert page["confide_trace_spans_buffered"] == 0


class TestNodeSamples:
    def test_node_samples_carry_engine_metrics(self):
        from repro.chain.node import Node
        from repro.core import bootstrap_founder

        node = Node(0)
        bootstrap_founder(node.confidential.km)
        node.confidential.provision_from_km()
        node.apply_transactions([])
        page = _page(node_samples(node))
        assert page["confide_epc_budget_pages"] > 0
        assert any(key.startswith("confide_tee_") for key in page)
        assert page['confide_mempool_depth{pool="verified"}'] == 0
        # The in-memory store keeps no engine counters.
        assert not any(key.startswith("confide_storage_") for key in page)
