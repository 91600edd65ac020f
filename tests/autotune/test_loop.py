"""The closed loop: state machine, drift triggering, recalibration
recovery, telemetry, and report integration."""

from dataclasses import replace

import pytest

from repro.autotune import (
    AutotuneConfig,
    AutotuneConfigError,
    AutotuneError,
    Autotuner,
)
from repro.experiments.harness import _scaled_params
from repro.obs import Observability, _payload_report
from repro.workloads import build_workload

N = 24
PARAMS = replace(_scaled_params(N), n_io_nodes=4)


def _drifted(params, latency=3.0, bandwidth=2.0):
    return replace(
        params,
        io_latency_s=params.io_latency_s * latency,
        io_bandwidth_bps=params.io_bandwidth_bps / bandwidth,
    )


def _tuner(**kw):
    kw.setdefault("params", PARAMS)
    kw.setdefault("n_nodes", 4)
    return Autotuner(build_workload("adi", N), **kw)


class TestConfigValidation:
    def test_default_valid(self):
        AutotuneConfig()

    @pytest.mark.parametrize("field,value", [
        ("cost_drift_threshold", 0.0),
        ("call_error_threshold", -1.0),
        ("io_ratio_band", (2.0, 1.0)),
        ("io_ratio_band", (0.0, 2.0)),
        ("min_samples", 1),
        ("max_recalibrations", 0),
    ])
    def test_bad_fields_named(self, field, value):
        with pytest.raises(AutotuneConfigError, match=field):
            AutotuneConfig(**{field: value})


class TestStateMachine:
    def test_starts_idle(self):
        assert _tuner().state == "idle"

    def test_solve_moves_to_monitoring(self):
        t = _tuner()
        d = t.solve()
        assert t.state == "monitoring"
        assert t.resolves == 1
        assert d is t.decision

    def test_observe_before_solve_raises(self):
        t = _tuner()
        with pytest.raises(AutotuneError, match="before solve"):
            t.observe(None)

    def test_run_once_solves_lazily(self):
        t = _tuner()
        run = t.run_once()
        assert t.decision is not None
        assert run.n_nodes == 4

    def test_in_band_stays_monitoring(self):
        """With the believed machine equal to the true machine, the
        modeled cost is close enough that the loop never trips."""
        t = _tuner(config=AutotuneConfig(cost_drift_threshold=0.7))
        t.solve()
        event = t.observe(t.run_once())
        assert event["event"] == "in_band"
        assert t.state == "monitoring"
        assert t.recalibrations == 0
        assert t.drift_events == 0


class TestDriftRecovery:
    def test_injected_drift_triggers_and_recovers(self):
        """Run against a machine 3x slower in latency and 2x slower in
        bandwidth than believed: the loop detects the drift, refits the
        believed params to the true machine exactly, and the follow-up
        observation lands back inside the threshold."""
        t = _tuner()
        t.solve()
        true = _drifted(PARAMS)
        first = t.observe(t.run_once(true_params=true))
        assert first["event"] == "recalibrated"
        assert t.drift_events == 1
        assert t.recalibrations == 1
        assert t.resolves == 2
        # believed parameters now match the true machine exactly
        assert t.params.io_latency_s == pytest.approx(
            true.io_latency_s, rel=1e-9
        )
        assert t.params.io_bandwidth_bps == pytest.approx(
            true.io_bandwidth_bps, rel=1e-9
        )
        second = t.observe(t.run_once(true_params=true))
        assert second["event"] == "in_band"
        assert second["cost_drift"] <= t.config.cost_drift_threshold
        assert t.recalibrations == 1

    def test_recalibration_cap_enforced(self):
        t = _tuner(config=AutotuneConfig(max_recalibrations=1))
        t.solve()
        t.observe(t.run_once(true_params=_drifted(PARAMS)))
        # the machine drifts AGAIN after the loop already spent its
        # one allowed recalibration
        event = t.observe(t.run_once(
            true_params=_drifted(PARAMS, latency=20.0, bandwidth=10.0)
        ))
        assert event["event"] == "recalibration_cap"
        assert t.recalibrations == 1

    def test_parameter_shift_recorded(self):
        t = _tuner()
        t.solve()
        event = t.observe(t.run_once(true_params=_drifted(PARAMS)))
        assert event["io_latency_s"]["old"] == PARAMS.io_latency_s
        assert event["io_latency_s"]["new"] == pytest.approx(
            PARAMS.io_latency_s * 3.0, rel=1e-9
        )
        assert "fit" in event


class TestTelemetry:
    def test_counters_and_gauges(self):
        obs = Observability()
        t = _tuner(obs=obs)
        t.solve()
        t.observe(t.run_once(true_params=_drifted(PARAMS)))
        snap = obs.metrics.to_dict()
        assert snap["autotune.resolves"]["value"] == 2
        assert snap["autotune.recalibrations"]["value"] == 1
        assert snap["autotune.drift_detected"]["value"] == 1
        assert snap[f"autotune.solver_{t.decision.solver}"]["value"] == 2
        assert snap["autotune.cost_drift"]["value"] > 0
        assert snap["autotune.predicted_cost_s"]["value"] == \
            pytest.approx(t.decision.predicted_cost_s)

    def test_summary_schema(self):
        t = _tuner()
        t.solve()
        t.observe(t.run_once())
        s = t.summary()
        assert s["state"] == "monitoring"
        # the decision runs a tile cache, and the model's cache credit
        # over-discounts its reads (predicted / measured 0.66): the
        # first observation absorbs that standing bias in model_scale
        assert s["resolves"] == 1 + s["recalibrations"] == 2
        assert s["solver"] == t.decision.solver
        assert s["predicted_cost_s"] == t.decision.predicted_cost_s
        assert {"measured_io_s", "cost_drift", "knobs", "history"} <= \
            set(s)
        assert all({"event", "detail"} <= set(h) for h in s["history"])

    def test_payload_and_report_section(self):
        obs = Observability()
        t = _tuner(obs=obs)
        t.solve()
        t.observe(t.run_once(true_params=_drifted(PARAMS)))
        payload = obs.to_payload()
        assert payload["autotune"]["recalibrations"] == 1
        text = _payload_report(payload)
        assert "autotuning (repro.autotune)" in text
        assert "recalibrations: 1" in text

    def test_journal_round_trip(self):
        import io

        from repro.obs import Journal
        from repro.obs.journal import payload_from_journal, read_journal

        buf = io.StringIO()
        obs = Observability(journal=Journal(buf))
        t = _tuner(obs=obs)
        t.solve()
        t.observe(t.run_once())
        events = read_journal(io.StringIO(buf.getvalue()))
        payload = payload_from_journal(events)
        assert payload["autotune"]["state"] == "monitoring"
