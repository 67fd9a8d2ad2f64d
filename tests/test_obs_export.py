"""Exporter tests: Prometheus exposition and Chrome trace JSON."""

import json

import pytest

from repro.obs.export import (
    chrome_trace,
    drain_to_file,
    parse_prometheus_text,
    prometheus_text,
    span_to_event,
    write_chrome_trace,
)
from repro.obs.metrics import Sample
from repro.obs.trace import Tracer


@pytest.fixture
def tracer():
    return Tracer(enabled=True)


class TestPrometheusText:
    def test_help_type_and_samples(self):
        text = prometheus_text([
            Sample("confide_op_seconds_total", "counter", "seconds per op",
                   {"engine": "confidential", "op": "Contract Call"}, 1.5),
            Sample("confide_mempool_depth", "gauge", "pool depth",
                   {"pool": "verified"}, 7),
            Sample("confide_mempool_depth", "gauge", "pool depth",
                   {"pool": "unverified"}, 2),
        ])
        assert text == (
            "# HELP confide_mempool_depth pool depth\n"
            "# TYPE confide_mempool_depth gauge\n"
            'confide_mempool_depth{pool="unverified"} 2\n'
            'confide_mempool_depth{pool="verified"} 7\n'
            "# HELP confide_op_seconds_total seconds per op\n"
            "# TYPE confide_op_seconds_total counter\n"
            'confide_op_seconds_total{engine="confidential",'
            'op="Contract Call"} 1.5\n'
        )

    def test_round_trip_parse(self):
        samples = parse_prometheus_text(prometheus_text([
            Sample("confide_a_total", "counter", "a", {}, 3),
            Sample("confide_b", "gauge", "b", {"op": "call"}, 2.5),
        ]))
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
