"""Exporter tests: Prometheus exposition, Chrome trace JSON, and the
bench-table/registry agreement the observability subsystem guarantees."""

import json

import pytest

from repro.bench.figures import table1_rows
from repro.bench.reporting import format_table1_crosscheck
from repro.obs.collect import OP_SECONDS, collect_node
from repro.obs.export import (
    chrome_trace,
    drain_to_file,
    parse_prometheus_text,
    prometheus_text,
    span_to_event,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


@pytest.fixture
def tracer():
    return Tracer(enabled=True)


class TestPrometheusText:
    def test_help_type_and_samples(self):
        registry = MetricsRegistry()
        registry.counter(
            "confide_op_seconds_total", "seconds per op", ("engine", "op")
        ).inc(1.5, engine="confidential", op="Contract Call")
        registry.gauge("confide_mempool_depth", labelnames=("pool",)).set(
            7, pool="verified"
        )
        text = prometheus_text(registry)
        assert "# HELP confide_op_seconds_total seconds per op" in text
        assert "# TYPE confide_op_seconds_total counter" in text
        assert (
            'confide_op_seconds_total{engine="confidential",'
            'op="Contract Call"} 1.5'
        ) in text
        assert "# TYPE confide_mempool_depth gauge" in text
        assert 'confide_mempool_depth{pool="verified"} 7' in text
        assert text.endswith("\n")

    def test_histogram_exposition(self):
        registry = MetricsRegistry()
        h = registry.histogram("confide_lat_seconds", buckets=(0.01, 0.1))
        h.observe(0.005)
        text = prometheus_text(registry)
        assert "# TYPE confide_lat_seconds histogram" in text
        assert 'confide_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "confide_lat_seconds_count 1" in text

    def test_round_trip_parse(self):
        registry = MetricsRegistry()
        registry.counter("confide_a_total").inc(3)
        registry.gauge("confide_b", labelnames=("op",)).set(2.5, op="call")
        samples = parse_prometheus_text(prometheus_text(registry))
        assert samples["confide_a_total"] == 3.0
        assert samples['confide_b{op="call"}'] == 2.5

    def test_parse_skips_comments_and_blanks(self):
        samples = parse_prometheus_text("# HELP x y\n\nx 1\n")
        assert samples == {"x": 1.0}

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("justonetoken")


class TestChromeTrace:
    def test_complete_event_fields(self, tracer):
        counter = {"cycles": 0.0}
        tracer.cycle_source = lambda: counter["cycles"]
        with tracer.span("tee.ecall", method="execute"):
            counter["cycles"] += 3700.0
        (span,) = tracer.drain()
        event = span_to_event(span)
        assert event["ph"] == "X"
        assert event["cat"] == "tee"
        assert event["ts"] == pytest.approx(span.start_s * 1e6, rel=1e-3)
        assert event["dur"] >= 0
        assert event["args"]["method"] == "execute"
        assert event["args"]["cycles"] == pytest.approx(3700.0)
        # 3700 cycles on the 3.7 GHz reference CPU = 1 µs.
        assert event["args"]["modeled_us"] == pytest.approx(1.0)
        assert event["args"]["span_id"] == span.span_id
        assert event["args"]["parent_id"] == span.parent_id

    def test_explicit_cycles_attr_wins(self, tracer):
        tracer.cycle_source = lambda: 0.0
        with tracer.span("tee.ecall") as span:
            span.set("cycles", 7400.0)
        (span,) = tracer.drain()
        event = span_to_event(span)
        assert event["args"]["cycles"] == pytest.approx(7400.0)
        assert event["args"]["modeled_us"] == pytest.approx(2.0)

    def test_instant_event(self, tracer):
        tracer.instant("epc.page_swap", pages=2)
        (span,) = tracer.drain()
        event = span_to_event(span)
        assert event["ph"] == "i"
        assert "dur" not in event

    def test_document_shape(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        document = chrome_trace(tracer.drain(), process_name="unit")
        events = document["traceEvents"]
        assert events[0]["ph"] == "M"
        assert events[0]["args"]["name"] == "unit"
        spans = events[1:]
        assert [e["name"] for e in spans] == ["outer", "inner"]
        assert spans[0]["ts"] <= spans[1]["ts"]
        json.dumps(document)  # must be serializable as-is

    def test_write_and_drain_to_file(self, tracer, tmp_path):
        with tracer.span("op"):
            pass
        path = tmp_path / "trace.json"
        assert write_chrome_trace(str(path), tracer.drain()) == 1
        with tracer.span("op2"):
            pass
        path2 = tmp_path / "trace2.json"
        assert drain_to_file(tracer, str(path2)) == 1
        for p in (path, path2):
            document = json.loads(p.read_text())
            assert document["traceEvents"]


class TestNodeRegistry:
    def test_collect_node_carries_engine_metrics(self):
        from repro.chain.node import Node
        from repro.core import bootstrap_founder

        node = Node(0)
        bootstrap_founder(node.confidential.km)
        node.confidential.provision_from_km()
        node.apply_transactions([])
        registry = MetricsRegistry()
        collect_node(registry, node)
        metrics = registry.sample_dict()
        assert metrics["confide_epc_budget_pages"] > 0
        assert any(key.startswith("confide_tee_") for key in metrics)


class TestTable1RegistryAgreement:
    @pytest.fixture(scope="class")
    def bench(self):
        registry = MetricsRegistry()
        rows = table1_rows(runs=1, registry=registry)
        return rows, registry

    def test_registry_equals_table1(self, bench):
        rows, registry = bench
        samples = registry.sample_dict()
        for row in rows:
            key = f'{OP_SECONDS}{{engine="confidential",op="{row.method}"}}'
            registry_ms = samples.get(key, 0.0) * 1000
            assert registry_ms == pytest.approx(row.duration_ms, rel=1e-12), (
                row.method
            )

    def test_crosscheck_table_reports_ok(self, bench):
        rows, registry = bench
        text = format_table1_crosscheck(rows, registry, runs=1)
        assert "DRIFT" not in text
        assert text.count("ok") >= len(rows)
