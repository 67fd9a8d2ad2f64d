"""Tests for the CI bench-regression comparator."""

import json

import pytest

from repro.bench.regression import check_storage, main


def _storage_result(block_p50=10.0, reopen=50.0):
    return {
        "cpu_count": 1,
        "backends": {
            "lsm": {
                "block_commit_ms": {"p50": block_p50},
                "reopen_ms": reopen,
                "reopen_restored_blocks": 8,
            },
        },
    }


class TestStorageGate:
    def test_within_tolerance_passes(self):
        failures, lines = check_storage(
            _storage_result(block_p50=12.0, reopen=60.0),
            _storage_result(block_p50=10.0, reopen=50.0))
        assert failures == []
        assert any("lsm" in line for line in lines)

    def test_block_commit_regression_fails(self):
        failures, _ = check_storage(
            _storage_result(block_p50=30.0),
            _storage_result(block_p50=10.0))
        assert any("block_commit" in f for f in failures)

    def test_reopen_regression_fails(self):
        failures, _ = check_storage(
            _storage_result(reopen=200.0),
            _storage_result(reopen=50.0))
        assert any("reopen" in f for f in failures)

    def test_missing_backend_fails(self):
        fresh = _storage_result()
        fresh["backends"] = {}
        failures, _ = check_storage(fresh, _storage_result())
        assert any("missing" in f for f in failures)


class TestMain:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_passing_pair_exits_zero(self, tmp_path, capsys):
        fresh = self._write(tmp_path, "fresh.json", _storage_result())
        base = self._write(tmp_path, "base.json", _storage_result())
        assert main(["--storage", fresh, "--storage-baseline", base]) == 0
        assert "passed" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        fresh = self._write(tmp_path, "fresh.json",
                            _storage_result(block_p50=99.0))
        base = self._write(tmp_path, "base.json", _storage_result())
        assert main(["--storage", fresh, "--storage-baseline", base]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_requires_at_least_one_pair(self):
        with pytest.raises(SystemExit):
            main([])
