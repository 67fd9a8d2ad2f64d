"""The horizontal scale-out bench and its regression gate."""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.harness import run_shard_bench
from repro.bench.regression import check_shard


@pytest.fixture(scope="module")
def bench_result(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("bench") / "shard.json")
    result = run_shard_bench(
        shard_counts=(1, 2), num_txs=16, nodes_per_shard=2,
        num_bundles=2, out_path=out,
    )
    return result, out


class TestShardBench:
    def test_shape(self, bench_result):
        result, _ = bench_result
        assert set(result["shards"]) == {"1", "2"}
        for entry in result["shards"].values():
            assert entry["committed"] == 16  # the serially-timed batch
            assert entry["modeled_aggregate_tps"] > 0
            assert entry["threaded_tps"] > 0
        assert result["cpu_count"] >= 1

    def test_modeled_scaling_recorded(self, bench_result):
        result, _ = bench_result
        scaling = result["scaling"]
        assert scaling["baseline_shards"] == 1
        assert scaling["top_shards"] == 2
        # Only the figure's presence is checked here: on a 16-tx run it
        # is a ratio of wall clocks, too noisy to gate.  The floor is
        # enforced by check_shard on the full-size bench-regression run
        # (test_speedup_below_floor_fails covers the gate itself).
        assert scaling["modeled_speedup"] > 0

    def test_cross_shard_section(self, bench_result):
        result, _ = bench_result
        cross = result["shards"]["2"]["cross_shard"]
        assert cross["committed"] == cross["bundles"] == 2
        assert cross["aborted"] == 0
        assert cross["relay_attested"] + cross["relay_quorum"] > 0
        # Single shard has no cross-shard traffic to measure.
        assert "cross_shard" not in result["shards"]["1"]

    def test_json_artifact_written(self, bench_result):
        result, out = bench_result
        assert os.path.exists(out)
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh) == result


class TestShardRegressionGate:
    def test_speedup_below_floor_fails(self, bench_result):
        result, _ = bench_result
        broken = json.loads(json.dumps(result))
        broken["scaling"]["modeled_speedup"] = 1.0
        failures, _ = check_shard(broken, result)
        assert any("floor" in f for f in failures)

    def test_missing_scaling_section_fails(self, bench_result):
        result, _ = bench_result
        broken = json.loads(json.dumps(result))
        del broken["scaling"]
        failures, _ = check_shard(broken, result)
        assert any("scaling" in f for f in failures)

    def test_cross_shard_abort_on_clean_bench_fails(self, bench_result):
        result, _ = bench_result
        broken = json.loads(json.dumps(result))
        broken["shards"]["2"]["cross_shard"]["committed"] = 1
        failures, _ = check_shard(broken, result)
        assert any("cross-shard" in f for f in failures)
