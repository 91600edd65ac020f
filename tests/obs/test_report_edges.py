"""Edge cases for the report-view totals: empty record lists, drift
rows with predicted_calls=None, and degraded-nest mixes — in every case
the view's measured totals must equal the folded IOStats exactly."""

from dataclasses import replace

from repro.experiments.harness import _scaled_params
from repro.faults import FaultConfig, FaultPlan, ResiliencePolicy
from repro.obs import (
    CostDriftRecord,
    NestIORecord,
    Observability,
    RedistRecord,
    build_drift,
    build_optimality,
    report_totals,
)
from repro.optimizer import build_version
from repro.parallel import CollectiveConfig, run_version_parallel
from repro.runtime import IOStats
from repro.workloads import build_workload

TOTAL_KEYS = (
    "read_calls", "write_calls", "elements_read", "elements_written",
)


def _fold_records(records):
    return IOStats.fold(
        IOStats(r.read_calls, r.write_calls,
                r.elements_read, r.elements_written)
        for r in records
    )


def _assert_totals_equal_stats(totals, stats):
    sd = stats.to_dict()
    assert all(totals[k] == sd.get(k) for k in TOTAL_KEYS), (totals, sd)


class TestEmpty:
    def test_report_totals_empty(self):
        totals = report_totals([])
        assert totals == {k: 0 for k in TOTAL_KEYS}
        _assert_totals_equal_stats(totals, IOStats())

    def test_drift_totals_empty(self):
        assert report_totals(build_drift([], {})) == {
            k: 0 for k in TOTAL_KEYS
        }

    def test_optimality_totals_empty(self):
        assert report_totals(build_optimality([], {})) == {
            k: 0 for k in TOTAL_KEYS
        }

    def test_build_drift_empty_records_keeps_predictions_visible(self):
        drift = build_drift([], {"n1": {"A": 12.5}})
        assert len(drift) == 1
        assert drift[0].path == "unexecuted"
        assert drift[0].predicted_calls == 12.5
        assert report_totals(drift) == {k: 0 for k in TOTAL_KEYS}


class TestPredictedNone:
    def test_drift_rows_without_prediction_still_total(self):
        records = [
            NestIORecord("n1", "A", 4, 2, 40, 20, 0.1),
            NestIORecord("n1", "B", 3, 0, 30, 0, 0.1),
        ]
        drift = build_drift(records, {"n1": {"A": 6.0}})
        by_array = {r.array: r for r in drift}
        assert by_array["B"].predicted_calls is None
        assert by_array["B"].error is None
        _assert_totals_equal_stats(
            report_totals(drift), _fold_records(records)
        )

    def test_explicit_none_prediction_record(self):
        r = CostDriftRecord(
            nest="n", array="A", predicted_calls=None,
            read_calls=2, write_calls=1, elements_read=8, elements_written=4,
        )
        assert r.error is None
        assert r.measured_calls == 3
        totals = report_totals([r])
        assert totals["elements_read"] == 8
        assert totals["elements_written"] == 4

    def test_mixed_soup_skips_redist_records(self):
        records = [
            NestIORecord("n1", "A", 1, 1, 10, 10, 0.0),
            RedistRecord("n1", messages=4, elements=100, time_s=0.2),
        ]
        totals = report_totals(records)
        assert totals["elements_read"] == 10
        assert totals["elements_written"] == 10


class TestDegradedMix:
    """A fault plan that degrades some two-phase nests to independent
    I/O: records carry mixed paths, but totals still equal the folded
    stats exactly."""

    N = 24
    N_NODES = 4

    def _run(self):
        cfg = build_version("c-opt", build_workload("adi", self.N))
        params = replace(_scaled_params(self.N), n_io_nodes=4)
        faults = FaultConfig(
            plan=FaultPlan(seed=7, failed_nodes=(0,)),
            policy=ResiliencePolicy(degrade_collective=True),
        )
        obs = Observability()
        run = run_version_parallel(
            cfg, self.N_NODES, params=params,
            collective=CollectiveConfig(), faults=faults, obs=obs,
        )
        return run, obs

    def test_degraded_mix_totals_exact(self):
        run, obs = self._run()
        stats = run.total_stats
        assert stats.degraded_nests > 0, "plan must actually degrade"
        paths = {r.path for r in obs.report.records}
        assert "independent" in paths  # the degraded nests
        _assert_totals_equal_stats(report_totals(obs.report.records), stats)
        _assert_totals_equal_stats(report_totals(obs.report.drift), stats)
        _assert_totals_equal_stats(
            report_totals(obs.report.optimality), stats
        )

    def test_degraded_bounds_still_hold(self):
        run, obs = self._run()
        for r in obs.report.optimality:
            assert r.bound_elements is not None
            assert r.bound_elements <= r.measured_elements + 1e-9
