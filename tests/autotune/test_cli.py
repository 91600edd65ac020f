"""``python -m repro.autotune`` surface."""

import json

import pytest

from repro.autotune.cli import main


class TestSolve:
    def test_human_output(self, capsys):
        assert main(["solve", "--workload", "adi", "--n", "16",
                     "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "joint config" in out
        assert "ILP (" in out

    def test_json_output(self, capsys):
        assert main(["solve", "--workload", "mxm", "--n", "16",
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["solver"] in ("milp", "exhaustive")
        assert record["predicted_cost_s"] > 0

    def test_descent_solver_requested(self, capsys):
        # the coordinate-descent solver is gone: asking for it is a
        # usage error, not a silent substitution
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--workload", "trans", "--n", "16",
                  "--solver", "descent", "--json"])
        assert exc.value.code == 2
        assert "invalid choice: 'descent'" in capsys.readouterr().err

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["solve", "--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_analytics_workload_accepted(self, capsys):
        assert main(["solve", "--workload", "window", "--n", "16",
                     "--json"]) == 0
        json.loads(capsys.readouterr().out)


class TestCalibrate:
    def test_recovers_true_machine(self, capsys):
        assert main(["calibrate", "--workload", "mxm", "--n", "16",
                     "--nodes", "2", "--perturb-latency", "4.0",
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        fitted = record["fitted"]["io"]
        assert fitted["latency_s"] == pytest.approx(
            record["true"]["io_latency_s"], rel=1e-6
        )
        assert fitted["bandwidth_bps"] == pytest.approx(
            record["true"]["io_bandwidth_bps"], rel=1e-6
        )


class TestLoop:
    def test_drift_detected_then_in_band(self, capsys):
        assert main(["loop", "--workload", "adi", "--n", "16",
                     "--nodes", "2", "--rounds", "2", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        events = [r["event"] for r in record["rounds"]]
        assert events[0] == "recalibrated"
        assert events[-1] == "in_band"
        assert record["summary"]["recalibrations"] == 1


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
