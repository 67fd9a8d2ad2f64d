"""Scenario smoke tests for the simulation harness, plus fault-spec
parsing and the ``repro sim`` CLI entry point."""

import pytest

from repro.errors import ChainError
from repro.sim import FAULT_KINDS, parse_faults, run_sim
from repro.sim.scenarios import (
    SCENARIOS,
    clean_scenario,
    crash_restart_scenario,
    everything_scenario,
    message_chaos_scenario,
    partition_scenario,
    tee_fault_scenario,
)


class TestScenarios:
    def test_clean_run_converges_without_faults(self):
        result = run_sim(clean_scenario(seed=1, steps=150))
        assert result.ok, result.failure_report()
        assert result.fault_schedule == []
        assert result.blocks_committed > 0
        assert result.txs_committed > 0
        assert len(set(result.final_state_roots.values())) == 1

    def test_message_chaos_converges(self):
        result = run_sim(message_chaos_scenario(seed=1, steps=150))
        assert result.ok, result.failure_report()
        assert result.blocks_committed > 0
        assert len(set(result.final_state_roots.values())) == 1

    def test_crash_restart_converges(self):
        result = run_sim(crash_restart_scenario(seed=1, steps=150))
        assert result.ok, result.failure_report()
        assert any("crash" in entry for entry in result.fault_schedule)
        # Restarted nodes recovered their keys and replayed their chains,
        # so everyone still agrees on the final state root.
        assert len(set(result.final_state_roots.values())) == 1

    def test_partition_heals_and_converges(self):
        result = run_sim(partition_scenario(seed=2, steps=150))
        assert result.ok, result.failure_report()
        assert any("partition" in entry for entry in result.fault_schedule)

    def test_tee_faults_converge(self):
        result = run_sim(tee_fault_scenario(seed=1, steps=150))
        assert result.ok, result.failure_report()
        assert any(
            "enclave" in entry or "epc" in entry
            for entry in result.fault_schedule
        )

    def test_everything_at_once_converges(self):
        result = run_sim(everything_scenario(seed=1, steps=150))
        assert result.ok, result.failure_report()
        assert len(result.fault_schedule) > 5

    def test_scenario_registry_is_complete(self):
        assert set(SCENARIOS) == {
            "clean", "message-chaos", "crash-restart", "partition",
            "tee-faults", "acceptance", "everything",
        }


class TestParseFaults:
    def test_comma_spec(self):
        assert parse_faults("drop,crash,partition,epc") == frozenset(
            {"drop", "crash", "partition", "epc"}
        )

    def test_all_keyword(self):
        assert parse_faults("all") == frozenset(FAULT_KINDS)

    def test_iterable_spec(self):
        assert parse_faults(["drop", "dup"]) == frozenset({"drop", "dup"})

    def test_empty_spec(self):
        assert parse_faults("") == frozenset()

    def test_unknown_fault_rejected(self):
        with pytest.raises(ChainError, match="unknown fault"):
            parse_faults("drop,meteor")


class TestSimCli:
    def test_cli_runs_and_exits_zero(self, capsys):
        from repro.cli import main

        code = main(["sim", "--seed", "1", "--steps", "40",
                     "--faults", "drop"])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed=1" in out

    def test_cli_writes_report(self, tmp_path, capsys):
        from repro.cli import main

        report = tmp_path / "sim-report.txt"
        code = main(["sim", "--seed", "2", "--steps", "40",
                     "--faults", "drop,epc", "--report", str(report)])
        assert code == 0
        text = report.read_text()
        assert "seed=2" in text
        assert "# fault schedule" in text

    def test_cli_rejects_bad_fault_spec(self, capsys):
        from repro.cli import main

        assert main(["sim", "--seed", "1", "--faults", "meteor"]) == 1

    @pytest.mark.parametrize("perturb", ["fault_schedule", "final_heights"])
    def test_cli_verify_determinism_compares_schedule_and_heights(
            self, monkeypatch, capsys, perturb):
        """Two runs that agree on the event log and the roots but not on
        the fault schedule or the final heights are not identical."""
        import repro.sim as sim_mod
        from repro.cli import main

        real_run = sim_mod.run_sim
        runs = []

        def run_then_perturb_the_second(config):
            result = real_run(config)
            runs.append(result)
            if len(runs) == 2:
                if perturb == "fault_schedule":
                    result.fault_schedule.append("step 99999: phantom")
                else:
                    result.final_heights[0] += 1
            return result

        monkeypatch.setattr(sim_mod, "run_sim", run_then_perturb_the_second)
        code = main(["sim", "--seed", "1", "--steps", "20",
                     "--faults", "drop", "--verify-determinism"])
        assert code == 1
        assert "DETERMINISM FAILURE" in capsys.readouterr().err
