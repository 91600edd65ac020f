"""Cost-model drift telemetry: the drift table's measured side equals
the folded IOStats exactly on every execution path, the model error is
reported per nest, and the records survive export round-trips."""

import pytest

from dataclasses import replace

from repro.engine import OOCExecutor
from repro.experiments.harness import _scaled_params
from repro.obs import (
    CostDriftRecord,
    IOReport,
    NestIORecord,
    Observability,
    build_drift,
    render_report,
    report_totals,
)
from repro.obs.report import RedistRecord
from repro.optimizer import build_version
from repro.parallel import CollectiveConfig, run_version_parallel
from repro.workloads import build_workload

N = 24
PARAMS = replace(_scaled_params(N), n_io_nodes=4)
N_NODES = 4


def _cfg(workload, version="c-opt"):
    return build_version(version, build_workload(workload, N))


def _run(workload, *, version="c-opt", collective=None, obs=None):
    return run_version_parallel(
        _cfg(workload, version), N_NODES, params=PARAMS,
        collective=collective, obs=obs,
    )


def _assert_exact(drift, stats):
    totals = report_totals(drift)
    assert totals["read_calls"] == stats.read_calls
    assert totals["write_calls"] == stats.write_calls
    assert totals["elements_read"] == stats.elements_read
    assert totals["elements_written"] == stats.elements_written


class TestExactTotals:
    """Acceptance gate: drift measured totals == folded IOStats, exactly,
    on the direct, independent and two-phase paths — adi and mxm."""

    @pytest.mark.parametrize("workload", ["adi", "mxm"])
    def test_independent(self, workload):
        obs = Observability()
        run = _run(workload, obs=obs)
        assert obs.report.drift
        _assert_exact(obs.report.drift, run.total_stats)

    @pytest.mark.parametrize("workload", ["adi", "mxm"])
    def test_two_phase(self, workload):
        obs = Observability()
        run = _run(
            workload, version="col",
            collective=CollectiveConfig(mode="always"), obs=obs,
        )
        assert obs.report.drift
        _assert_exact(obs.report.drift, run.total_stats)

    @pytest.mark.parametrize("workload", ["adi", "mxm"])
    def test_direct(self, workload):
        cfg = _cfg(workload)
        obs = Observability()
        result = OOCExecutor(
            cfg.program, cfg.layouts, params=PARAMS, tiling=cfg.tiling,
            storage_spec=cfg.storage_spec, obs=obs,
        ).run()
        assert obs.report.drift
        _assert_exact(obs.report.drift, result.stats)


class TestModelError:
    """Acceptance gate: predicted-vs-measured error is reported per nest
    for adi and mxm, and published into the metrics registry."""

    @pytest.mark.parametrize("workload", ["adi", "mxm"])
    def test_every_executed_nest_reports_an_error(self, workload):
        obs = Observability()
        _run(workload, obs=obs)
        executed = {r.nest for r in obs.report.records}
        assert executed
        for nest in executed:
            errors = [
                r.error for r in obs.report.drift
                if r.nest == nest and r.error is not None
            ]
            assert errors, f"nest {nest} has no model-error row"

    def test_error_gauges_published(self):
        obs = Observability()
        _run("adi", obs=obs)
        keys = [k for k, _ in obs.metrics.items()]
        assert any(k.startswith("cost_model.measured_calls") for k in keys)
        assert any(k.startswith("cost_model.predicted_calls") for k in keys)
        assert any(k.startswith("cost_model.call_error") for k in keys)
        # gauge values mirror the drift rows
        for r in obs.report.drift:
            if r.error is None:
                continue
            g = obs.metrics.gauge(
                "cost_model.call_error", nest=r.nest, array=r.array
            )
            assert g.value == r.error

    def test_predictions_identical_across_ranks(self):
        """The prediction is per-program; registering it once (rank 0)
        must not depend on which rank computes it."""
        cfg = _cfg("adi")
        predicted = [
            OOCExecutor(
                cfg.program, cfg.layouts, params=PARAMS, tiling=cfg.tiling,
                storage_spec=cfg.storage_spec,
            ).predicted_io()
            for _ in range(2)
        ]
        assert predicted[0] == predicted[1]
        assert predicted[0]


class TestBuildDrift:
    def _measured(self):
        return [
            NestIORecord("n1", "A", read_calls=60, write_calls=0,
                         elements_read=600, node=0, path="independent"),
            NestIORecord("n1", "A", read_calls=40, write_calls=10,
                         elements_read=400, elements_written=100,
                         node=1, path="independent"),
            NestIORecord("n1", "grouped", read_calls=5, node=0,
                         path="independent"),
        ]

    def test_pairs_measured_with_predictions(self):
        drift = build_drift(self._measured(), {"n1": {"A": 110.0}})
        (a,) = [r for r in drift if r.array == "A"]
        assert a.measured_calls == 110
        assert a.predicted_calls == 110.0
        assert a.error == 0.0

    def test_unpredicted_pair_has_none_prediction(self):
        drift = build_drift(self._measured(), {"n1": {"A": 110.0}})
        (g,) = [r for r in drift if r.array == "grouped"]
        assert g.predicted_calls is None
        assert g.error is None
        assert g.measured_calls == 5

    def test_unexecuted_prediction_appended_visibly(self):
        drift = build_drift(
            self._measured(), {"n1": {"A": 110.0}, "ghost": {"B": 7.0}}
        )
        (ghost,) = [r for r in drift if r.nest == "ghost"]
        assert ghost.path == "unexecuted"
        assert ghost.measured_calls == 0
        assert ghost.error is None

    def test_totals_equal_record_totals_regardless_of_predictions(self):
        records = self._measured()
        drift = build_drift(records, {"ghost": {"B": 7.0}})
        assert report_totals(drift) == report_totals(records)

    def test_error_is_signed_relative(self):
        r = CostDriftRecord("n", "A", predicted_calls=90.0,
                            read_calls=100, write_calls=0)
        assert r.error == pytest.approx(-0.1)

    def test_round_trip(self):
        r = CostDriftRecord("n", "A", predicted_calls=None,
                            read_calls=3, path="two-phase")
        assert CostDriftRecord.from_dict(r.to_dict()) == r


class TestMixedRecordTotals:
    def test_report_totals_skips_redist_records(self):
        mixed = [
            NestIORecord("n1", "A", read_calls=7, elements_read=70),
            RedistRecord("n1", messages=99, elements=990),
            NestIORecord("n2", "B", write_calls=3, elements_written=30),
        ]
        totals = report_totals(mixed)
        assert totals == {
            "read_calls": 7, "write_calls": 3,
            "elements_read": 70, "elements_written": 30,
        }


class TestRenderAndExport:
    def test_render_shows_drift_section_and_exact_cross_check(self):
        obs = Observability()
        run = _run("adi", obs=obs)
        text = render_report(obs.report, run.total_stats.to_dict())
        assert "cost-model drift" in text
        assert "drift measured totals vs folded IOStats: exact match" in text
        assert "model error:" in text

    def test_drift_survives_payload_round_trip(self):
        obs = Observability()
        _run("mxm", obs=obs)
        payload = obs.to_payload()
        loaded = IOReport.from_dict(payload["io_report"])
        assert loaded.drift == obs.report.drift

    def test_off_by_default_no_drift_work(self):
        run = _run("adi", obs=None)
        assert run.total_stats.calls > 0  # nothing exploded without obs
