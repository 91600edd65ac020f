"""Observability wired through the system: off is bit-identical, on
reports totals that equal the folded IOStats exactly, and the CLI
renders the cross-checked table."""

import json

import pytest

from dataclasses import replace

from repro.engine import OOCExecutor
from repro.experiments.harness import _scaled_params
from repro.obs import ObsConfig, Observability, report_totals
from repro.optimizer import build_version, optimize_program
from repro.parallel import CollectiveConfig, run_version_parallel
from repro.workloads import build_workload

N = 24
PARAMS = replace(_scaled_params(N), n_io_nodes=4)
N_NODES = 4


def _cfg(workload, version="c-opt"):
    return build_version(version, build_workload(workload, N))


def _stats_fields(stats):
    return (
        stats.read_calls, stats.write_calls,
        stats.elements_read, stats.elements_written,
        stats.io_time_s, stats.compute_time_s,
        stats.redist_messages, stats.redist_elements, stats.redist_time_s,
    )


def _run(workload, *, version="c-opt", collective=None, obs=None):
    return run_version_parallel(
        _cfg(workload, version), N_NODES, params=PARAMS,
        collective=collective, obs=obs,
    )


class TestOffByDefault:
    """Acceptance gate: obs off (the default) leaves IOStats and the
    printed stats line bit-identical — on adi and on mxm."""

    @pytest.mark.parametrize("workload", ["adi", "mxm"])
    def test_parallel_run_bit_identical(self, workload):
        base = _run(workload)
        on = _run(workload, obs=Observability())
        assert _stats_fields(on.total_stats) == _stats_fields(
            base.total_stats
        )
        assert str(on.total_stats) == str(base.total_stats)
        assert on.time_s == base.time_s

    @pytest.mark.parametrize("workload", ["adi", "mxm"])
    def test_collective_run_bit_identical(self, workload):
        coll = CollectiveConfig(mode="auto")
        base = _run(workload, collective=coll)
        on = _run(workload, collective=coll, obs=Observability())
        assert _stats_fields(on.total_stats) == _stats_fields(
            base.total_stats
        )
        assert str(on.total_stats) == str(base.total_stats)
        assert on.time_s == base.time_s

    def test_executor_bit_identical(self):
        cfg = _cfg("adi")
        base = OOCExecutor(
            cfg.program, cfg.layouts, params=PARAMS, tiling=cfg.tiling,
            storage_spec=cfg.storage_spec,
        ).run()
        on = OOCExecutor(
            cfg.program, cfg.layouts, params=PARAMS, tiling=cfg.tiling,
            storage_spec=cfg.storage_spec, obs=Observability(),
        ).run()
        assert _stats_fields(on.stats) == _stats_fields(base.stats)
        assert str(on.stats) == str(base.stats)


class TestExactTotals:
    """The report's call/element totals equal the folded stats exactly."""

    def test_independent_parallel(self):
        obs = Observability()
        run = _run("adi", obs=obs)
        totals = report_totals(obs.report.records)
        s = run.total_stats
        assert totals["read_calls"] == s.read_calls
        assert totals["write_calls"] == s.write_calls
        assert totals["elements_read"] == s.elements_read
        assert totals["elements_written"] == s.elements_written

    @pytest.mark.parametrize("mode", ["auto", "always"])
    def test_collective_adi(self, mode):
        obs = Observability()
        run = _run(
            "adi", version="col",
            collective=CollectiveConfig(mode=mode), obs=obs,
        )
        totals = report_totals(obs.report.records)
        s = run.total_stats
        assert totals["read_calls"] == s.read_calls
        assert totals["write_calls"] == s.write_calls
        assert totals["elements_read"] == s.elements_read
        assert totals["elements_written"] == s.elements_written
        # redistribution records mirror the stats' redist counters
        assert sum(r.messages for r in obs.report.redist) == \
            s.redist_messages
        assert sum(r.elements for r in obs.report.redist) == \
            s.redist_elements

    def test_direct_executor(self):
        cfg = _cfg("adi")
        obs = Observability()
        result = OOCExecutor(
            cfg.program, cfg.layouts, params=PARAMS, tiling=cfg.tiling,
            storage_spec=cfg.storage_spec, obs=obs,
        ).run()
        totals = report_totals(obs.report.records)
        assert totals["read_calls"] == result.stats.read_calls
        assert totals["write_calls"] == result.stats.write_calls
        assert totals["elements_read"] == result.stats.elements_read
        assert totals["elements_written"] == result.stats.elements_written


class TestInstrumentation:
    def test_pipeline_spans(self):
        obs = Observability()
        program = build_workload("adi", N)
        optimize_program(program, obs=obs)
        names = [s.name for s in obs.tracer.wall_spans]
        assert "optimize_program" in names
        assert "normalize" in names
        assert "interference" in names
        assert any(n.startswith("optimize_nest") for n in names)

    def test_executor_spans_and_metrics(self):
        cfg = _cfg("adi")
        obs = Observability()
        result = OOCExecutor(
            cfg.program, cfg.layouts, params=PARAMS, tiling=cfg.tiling,
            storage_spec=cfg.storage_spec, obs=obs,
        ).run()
        names = [s.name for s in obs.tracer.wall_spans]
        assert "executor.run" in names
        assert any(n.startswith("nest ") for n in names)
        assert obs.metrics.counter("io.read_calls").value == \
            result.stats.read_calls
        assert "io.call_elements" in obs.metrics

    def test_sim_events_recorded(self):
        obs = Observability()
        run = _run(
            "adi", version="col",
            collective=CollectiveConfig(mode="always"), obs=obs,
        )
        assert run.collective.sim is not None
        assert obs.sim_summary is not None
        assert obs.sim_summary["makespan_s"] == pytest.approx(run.time_s)
        sim_tracks = {s.track for s in obs.tracer.virtual_spans}
        assert any(t.startswith("node ") for t in sim_tracks)

    def test_sim_events_match_sim_result_count(self):
        obs = Observability()
        run = _run(
            "adi", version="col",
            collective=CollectiveConfig(mode="always"), obs=obs,
        )
        node_spans = [
            s for s in obs.tracer.virtual_spans
            if s.track.startswith("node ")
        ]
        assert len(node_spans) >= run.collective.sim.n_events


class TestReportEventCompat:
    def test_stringifies_to_old_lines(self):
        decision = optimize_program(build_workload("adi", N))
        assert decision.report, "report must not be empty"
        for event in decision.report:
            assert str(event) == event.text
            d = event.to_dict()
            assert d["kind"] == event.kind
            json.dumps(d)  # structured payload must be JSON-ready
        kinds = {e.kind for e in decision.report}
        assert {"components", "nest"} <= kinds
        assert decision.report_lines == [str(e) for e in decision.report]


class TestCLI:
    def test_report_command_exact_match(self, tmp_path, capsys):
        from repro.obs.cli import main

        obs = Observability()
        _run(
            "adi", version="col",
            collective=CollectiveConfig(mode="always"), obs=obs,
        )
        path = tmp_path / "trace.json"
        obs.export(str(path))
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "exact match" in out
        assert "TOTAL" in out
        assert "event sim:" in out

    def test_capture_then_report(self, tmp_path, capsys):
        from repro.obs.cli import main

        path = tmp_path / "cap.json"
        assert main([
            "capture", "--workload", "adi", "--n", "16",
            "--nodes", "2", "--collective", "--out", str(path),
        ]) == 0
        assert main(["report", str(path), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "exact match" in out
        assert "metric" in out
