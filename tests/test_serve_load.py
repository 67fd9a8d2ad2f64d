"""Seeded mini-soak tests over the virtual-time load generator.

The load generator drives the *real* gateway code path under a
discrete-event clock, so these tests can assert the strong properties
the serving benchmark relies on: a fixed seed reproduces the summary
byte for byte, accepted transactions are conserved (exactly one receipt
each, rejected ones none), backpressure and rate limiting are counted
— not lost — and every response plus the final store is canary-free.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.obs.collect import collect_loadgen
from repro.obs.export import prometheus_text
from repro.serve.loadgen import (
    LoadConfig,
    percentile,
    run_virtual_load,
    write_bench,
)

# Small enough to run in seconds, loaded enough to hit the interesting
# regimes: the tiny mempool forces backpressure, the arrival rate keeps
# several blocks' worth of transactions in flight.
SOAK = LoadConfig(
    clients=24,
    requests_per_client=2,
    seed=7,
    arrival_rate_rps=600.0,
    mempool_capacity=8,
    max_block_bytes=8192,
)


@pytest.fixture(scope="module")
def soak_report():
    return run_virtual_load(SOAK)


class TestDeterminism:
    def test_fixed_seed_reproduces_summary_bytes(self, soak_report):
        rerun = run_virtual_load(SOAK)
        first = json.dumps(soak_report.summary(), sort_keys=True)
        second = json.dumps(rerun.summary(), sort_keys=True)
        assert first == second

    def test_different_seed_differs(self, soak_report):
        other = run_virtual_load(replace(SOAK, seed=8))
        assert other.summary() != soak_report.summary()

    def test_bench_document_is_reproducible(self, soak_report, tmp_path):
        rerun = run_virtual_load(SOAK)
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        write_bench(str(path_a), SOAK, soak_report)
        write_bench(str(path_b), SOAK, rerun)
        doc_a = json.loads(path_a.read_text())
        doc_b = json.loads(path_b.read_text())
        # Everything but the wall-clock timing is byte-deterministic.
        assert doc_a["config"] == doc_b["config"]
        assert doc_a["summary"] == doc_b["summary"]
        assert set(doc_a) == {"config", "summary", "timing"}


class TestConservation:
    def test_accepted_equals_committed(self, soak_report):
        # run_virtual_load already raised InvariantViolation if any
        # accepted tx lacked a receipt or any rejected tx gained one;
        # here we pin the bookkeeping identities on top.
        assert soak_report.committed == soak_report.accepted
        assert soak_report.committed == len(soak_report.modeled_latencies_s)

    def test_every_submission_is_accounted(self, soak_report):
        outcomes = (
            soak_report.accepted
            + soak_report.backpressure
            + soak_report.duplicates
            + soak_report.rate_limited
            + sum(soak_report.errors_by_kind.values())
        )
        assert outcomes == soak_report.submitted
        assert soak_report.submitted == SOAK.clients * SOAK.requests_per_client

    def test_backpressure_actually_happened(self, soak_report):
        # The tiny mempool makes TxPool.add -> False reachable; the run
        # must surface it as counted backpressure, not silent loss.
        assert soak_report.backpressure > 0
        assert soak_report.errors_by_kind == {}

    def test_canaries_scanned_and_absent(self, soak_report):
        # Every RPC response and committed receipt blob was scanned (a
        # hit raises inside the run, so arriving here proves absence).
        assert soak_report.canary_scans > soak_report.submitted
        assert soak_report.summary()["canary_hits"] == 0

    def test_latency_quantiles_ordered(self, soak_report):
        quantiles = soak_report.modeled_latency_quantiles_s
        assert 0 < quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]
        assert soak_report.blocks > 0
        assert soak_report.modeled_duration_s > 0


class TestModes:
    def test_closed_loop_mode(self):
        report = run_virtual_load(LoadConfig(
            clients=8, requests_per_client=2, seed=3, mode="closed",
            think_time_s=0.1, mempool_capacity=64,
        ))
        assert report.committed == report.accepted
        assert report.submitted == 16

    def test_rate_limited_clients_are_counted(self):
        # One token per 10 virtual seconds with burst 1: each client's
        # second request inside the run window must be refused.
        report = run_virtual_load(LoadConfig(
            clients=6, requests_per_client=3, seed=5,
            arrival_rate_rps=600.0, mempool_capacity=64,
            rate_per_s=0.1, burst=1.0,
        ))
        assert report.rate_limited > 0
        assert report.committed == report.accepted
        assert (report.accepted + report.rate_limited
                + report.backpressure + report.duplicates
                == report.submitted)


class TestLoadConfig:
    @pytest.mark.parametrize("field, value", [
        ("clients", 0),
        ("requests_per_client", 0),
        ("arrival_rate_rps", 0.0),
        ("arrival_rate_rps", -5.0),
        ("think_time_s", 0.0),
        ("block_interval_s", 0.0),
        ("block_interval_s", -0.03),
        ("max_block_bytes", 0),
        ("mempool_capacity", 0),
        ("rate_per_s", -1.0),
        ("burst", 0.0),
        ("mode", "sideways"),
    ])
    def test_invalid_value_rejected(self, field, value):
        with pytest.raises(ReproError, match="invalid load config"):
            LoadConfig(**{field: value})


class TestObservability:
    def test_report_feeds_metrics_registry(self, soak_report):
        registry = MetricsRegistry()
        collect_loadgen(registry, soak_report)
        text = prometheus_text(registry)
        assert "confide_serve_load_clients" in text
        assert "confide_serve_load_committed_total" in text
        assert 'quantile="p99"' in text

    def test_percentile_helper(self):
        # Nearest-rank: the p50/p95/p99 columns of BENCH_serving.json.
        assert percentile([], 0.5) == 0.0
        values = [float(i) for i in range(100)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.99) == 99.0
        assert percentile([42.0], 0.999) == 42.0
