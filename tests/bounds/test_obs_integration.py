"""Optimality telemetry wired through the observability stack: off is
bit-identical (obs=None), the report section renders with
the exact-totals cross-check, gauges publish, payloads round-trip, and
the CLI subcommand works end to end."""

import json
from dataclasses import replace

import pytest

from repro.bounds import program_bounds
from repro.engine import OOCExecutor
from repro.experiments.harness import _scaled_params
from repro.obs import (
    IOReport,
    Observability,
    OptimalityRecord,
    build_optimality,
    render_report,
    report_totals,
)
from repro.obs.cli import main as obs_main
from repro.optimizer import build_version
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


class TestOffByDefault:
    """Acceptance gate: with obs on (bounds derived at the run's end)
    or off, every execution path stays bit-identical — pinned on adi
    and mxm."""

    @pytest.mark.parametrize("workload", ["adi", "mxm"])
    @pytest.mark.parametrize("collective", [None, CollectiveConfig()])
    def test_parallel_bit_identical(self, workload, collective):
        cfg = _cfg(workload)
        base = run_version_parallel(
            cfg, N_NODES, params=PARAMS, collective=collective,
        )
        on = run_version_parallel(
            cfg, N_NODES, params=PARAMS, collective=collective,
            obs=Observability(),
        )
        assert _stats_fields(on.total_stats) == _stats_fields(
            base.total_stats
        )
        assert str(on.total_stats) == str(base.total_stats)
        assert on.time_s == base.time_s

    @pytest.mark.parametrize("workload", ["adi", "mxm"])
    def test_executor_bit_identical(self, workload):
        cfg = _cfg(workload)
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


class TestOptimalityView:
    def test_explicit_bounds_are_adopted(self):
        # bounds registered after the run's own derivation win (the fold
        # keeps a nest's last registration)
        cfg = _cfg("mxm")
        bounds = program_bounds(cfg.program, memory_elements=64)
        obs = Observability()
        OOCExecutor(
            cfg.program, cfg.layouts, params=PARAMS, tiling=cfg.tiling,
            storage_spec=cfg.storage_spec, obs=obs,
        ).run()
        obs.note_bounds(bounds)
        by_nest = {r.nest: r for r in obs.report.optimality}
        for nb in bounds:
            assert by_nest[nb.nest].bound_elements == nb.bound_elements
            assert by_nest[nb.nest].rule == nb.rule

    @pytest.mark.parametrize("cached", [False, True])
    def test_both_entry_points_derive_the_same_bounds(self, cached):
        # one derivation (repro.bounds.run_bounds): a lone executor and
        # the one-node driver argue the same run against the same
        # bounds, warm-discounted exactly when a cache is configured
        from repro.cache import CacheConfig

        cfg = _cfg("adi")
        kw = {"cache": CacheConfig(budget_fraction=0.5)} if cached else {}
        lone, driven = Observability(), Observability()
        OOCExecutor(
            cfg.program, cfg.layouts, params=PARAMS, tiling=cfg.tiling,
            storage_spec=cfg.storage_spec, backend="simulate", obs=lone, **kw,
        ).run()
        run_version_parallel(cfg, 1, params=PARAMS, obs=driven, **kw)
        assert lone.bounds == driven.bounds
        assert all(b["warm"] is cached for b in lone.bounds.values())
        # same rows up to the path label (direct vs independent)
        assert [
            replace(r, path="") for r in lone.report.optimality
        ] == [replace(r, path="") for r in driven.report.optimality]

    def test_gauges_published(self):
        cfg = _cfg("mxm")
        obs = Observability()
        OOCExecutor(
            cfg.program, cfg.layouts, params=PARAMS, tiling=cfg.tiling,
            storage_spec=cfg.storage_spec, obs=obs,
        ).run()
        keys = obs.metrics.to_dict()
        assert any(k.startswith("optimality.ratio") for k in keys)
        assert any(k.startswith("optimality.bound_elements") for k in keys)
        assert any(k.startswith("optimality.measured_elements") for k in keys)
        assert "optimality.run_ratio" in keys
        assert keys["optimality.run_ratio"]["value"] >= 1.0

    def test_unexecuted_bound_rows_surface(self):
        obs = Observability()
        obs.note_bounds(program_bounds(_cfg("mxm").program))
        assert obs.report.optimality
        assert all(r.path == "unexecuted" for r in obs.report.optimality)
        totals = report_totals(obs.report.optimality)
        assert all(v == 0 for v in totals.values())

    def test_build_optimality_aggregates_per_nest(self):
        from repro.obs import NestIORecord

        records = [
            NestIORecord("n1", "A", 2, 1, 20, 10, 0.0, node=0),
            NestIORecord("n1", "B", 3, 0, 30, 0, 0.0, node=1),
            NestIORecord("n2", "A", 1, 1, 5, 5, 0.0),
        ]
        bounds = {"n1": {"rule": "cold-footprint", "bound_elements": 40.0}}
        rows = {r.nest: r for r in build_optimality(records, bounds)}
        assert rows["n1"].measured_elements == 60
        assert rows["n1"].ratio == pytest.approx(1.5)
        assert rows["n2"].bound_elements is None and rows["n2"].ratio is None
        totals = report_totals(rows.values())
        assert totals["elements_read"] == 55
        assert totals["elements_written"] == 15

    def test_payload_roundtrip_and_render(self):
        cfg = _cfg("adi")
        obs = Observability()
        run = run_version_parallel(cfg, N_NODES, params=PARAMS, obs=obs)
        payload = obs.to_payload()
        report = IOReport.from_dict(payload["io_report"])
        assert [r.to_dict() for r in report.optimality] == [
            r.to_dict() for r in obs.report.optimality
        ]
        text = render_report(report, run.total_stats.to_dict())
        assert "optimality (achieved vs I/O lower bound" in text
        assert "optimality measured totals vs folded IOStats: exact match" in text
        assert "run ratio:" in text

    def test_record_roundtrip(self):
        r = OptimalityRecord(
            nest="x", rule="cold-footprint", bound_elements=10.0,
            modeled_elements=12.0, read_calls=1, write_calls=2,
            elements_read=8, elements_written=4, path="direct", detail="d",
        )
        assert OptimalityRecord.from_dict(r.to_dict()) == r
        assert r.measured_elements == 12
        assert r.ratio == pytest.approx(1.2)


class TestCLI:
    def test_bounds_static(self, capsys):
        assert obs_main(
            ["bounds", "--workload", "mxm", "--n", "12", "--static"]
        ) == 0
        out = capsys.readouterr().out
        assert "hong-kung-contraction" in out
        assert "mxm.jki" in out

    def test_bounds_run(self, capsys):
        assert obs_main(
            ["bounds", "--workload", "mxm", "--n", "16", "--nodes", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "optimality measured totals vs folded IOStats: exact match" in out

    def test_bounds_analytics_workload(self, capsys):
        assert obs_main(
            ["bounds", "--workload", "window", "--n", "12", "--static"]
        ) == 0
        assert "window.agg" in capsys.readouterr().out

    def test_bounds_unknown_workload(self, capsys):
        assert obs_main(
            ["bounds", "--workload", "nope", "--static"]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_stdin(self, capsys, monkeypatch):
        import io

        cfg = _cfg("mxm")
        obs = Observability()
        run_version_parallel(cfg, N_NODES, params=PARAMS, obs=obs)
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(obs.to_payload()))
        )
        assert obs_main(["report", "-"]) == 0
        out = capsys.readouterr().out
        assert "optimality (achieved vs I/O lower bound" in out

    def test_report_stdin_malformed(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
        assert obs_main(["report", "-"]) == 2
        assert "malformed trace JSON in stdin" in capsys.readouterr().err
