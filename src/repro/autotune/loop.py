"""The closed loop: monitor drift, recalibrate, re-solve.

The PR-4 observability layer already measures how wrong the cost model
is — ``cost_model.call_error`` gauges per (nest, array) and the
``backend.io_ratio`` gauge comparing measured wall seconds to modeled
I/O seconds.  The :class:`Autotuner` closes the loop those gauges left
open:

::

    idle --solve()--> monitoring --drift > threshold--> calibrating
                          ^                                 |
                          |                             (least squares)
                          |                                 v
                          +------- re-solve <----------- resolving

``observe(run)`` computes the drift signals from a finished run (and
the attached :class:`~repro.obs.Observability`, when given).  While
every signal stays inside its threshold the state remains
``monitoring`` and nothing changes — the loop is a no-op on a
well-calibrated machine.  When a signal trips, the believed
:class:`~repro.runtime.MachineParams` are refitted from the run's own
per-nest samples (:mod:`repro.autotune.calibrate`) and the joint
search re-runs under the new parameters.  Every transition emits
``autotune.*`` counters/gauges and a journal record, and
:meth:`Autotuner.summary` feeds the report's autotuning section.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

from ..engine.executor import plan_program
from ..obs import Observability, sanitize
from ..parallel.spmd import ParallelRun, run_version_parallel
from ..runtime import MachineParams
from ..transforms.tiling import ooc_tiling
from .calibrate import CalibrationError, calibrate
from .model import config_cost
from .search import TuneDecision, solve_joint
from .space import AutotuneError, TuneSpace


class AutotuneConfigError(AutotuneError):
    """An :class:`AutotuneConfig` field is out of range."""


@dataclass(frozen=True)
class AutotuneConfig:
    """Thresholds and knobs of the drift loop."""

    #: relative |predicted - measured| I/O seconds that trips the loop
    cost_drift_threshold: float = 0.2
    #: max |cost_model.call_error| gauge value that trips the loop
    call_error_threshold: float = 0.5
    #: acceptable band for the backend.io_ratio gauge (measured wall /
    #: modeled seconds); outside it the loop trips
    io_ratio_band: tuple[float, float] = (0.25, 4.0)
    #: minimum calibration samples before a refit is attempted
    min_samples: int = 2
    #: stage-A solver request passed through to the joint search
    solver: str = "auto"
    #: hard cap on recalibration rounds (a guard, not a tuning knob)
    max_recalibrations: int = 8

    def __post_init__(self):
        if self.cost_drift_threshold <= 0:
            raise AutotuneConfigError(
                f"cost_drift_threshold must be > 0, got "
                f"{self.cost_drift_threshold}"
            )
        if self.call_error_threshold <= 0:
            raise AutotuneConfigError(
                f"call_error_threshold must be > 0, got "
                f"{self.call_error_threshold}"
            )
        lo, hi = self.io_ratio_band
        if not (0 < lo < hi):
            raise AutotuneConfigError(
                f"io_ratio_band must satisfy 0 < lo < hi, got "
                f"{self.io_ratio_band}"
            )
        if self.min_samples < 2:
            raise AutotuneConfigError(
                f"min_samples must be >= 2, got {self.min_samples}"
            )
        if self.max_recalibrations < 1:
            raise AutotuneConfigError(
                f"max_recalibrations must be >= 1, got "
                f"{self.max_recalibrations}"
            )


class Autotuner:
    """Joint solver + calibrator behind a drift-watching state machine.

    The tuner owns the *believed* :class:`MachineParams`; the machine
    it runs against may disagree (that is the drift).  All state
    transitions happen inside :meth:`solve` and :meth:`observe`; both
    are deterministic functions of the run they are handed.
    """

    STATES = ("idle", "monitoring", "calibrating", "resolving")

    def __init__(
        self,
        program,
        *,
        params: MachineParams | None = None,
        binding: Mapping[str, int] | None = None,
        n_nodes: int = 1,
        memory_budget: int | None = None,
        space: TuneSpace | None = None,
        config: AutotuneConfig | None = None,
        obs: Observability | None = None,
    ):
        self.program = program
        self.params = params or MachineParams()
        self.binding = binding
        self.n_nodes = n_nodes
        self.memory_budget = memory_budget
        self.space = space or TuneSpace.default_for(n_nodes)
        self.config = config or AutotuneConfig()
        self.obs = obs
        self.state = "idle"
        self.decision: TuneDecision | None = None
        self.history: list[dict] = []
        self.recalibrations = 0
        self.resolves = 0
        self.drift_events = 0
        #: multiplicative model-bias correction: the config model has
        #: structural error against the executor (one representative
        #: tile, a crude cache credit); each recalibration refits this
        #: scale from the same run the parameters were fitted from, so
        #: drift afterwards measures *change since calibration*, not
        #: the model's standing bias
        self.model_scale = 1.0
        self._last_drift: dict | None = None

    # -- state machine -------------------------------------------------

    def solve(self) -> TuneDecision:
        """Run the joint search under the believed parameters and move
        to ``monitoring``."""
        self.decision = solve_joint(
            self.program,
            binding=self.binding,
            params=self.params,
            n_nodes=self.n_nodes,
            memory_budget=self.memory_budget,
            space=self.space,
            solver=self.config.solver,
        )
        self.resolves += 1
        self.state = "monitoring"
        self._emit("solve", {
            "solver": self.decision.solver,
            "predicted_cost_s": self.decision.predicted_cost_s,
            "cache_budget": self.decision.cache_budget,
            "cb_nodes": self.decision.cb_nodes,
        }, detail=(
            f"solver={self.decision.solver} "
            f"predicted={self.decision.predicted_cost_s:.4f}s"
        ))
        if self.obs is not None and self.obs.config.metrics:
            m = self.obs.metrics
            m.counter("autotune.resolves").inc()
            m.counter(
                f"autotune.solver_{self.decision.solver}"
            ).inc()
            m.gauge("autotune.predicted_cost_s").set(
                self.decision.predicted_cost_s
            )
        return self.decision

    def run_once(
        self, *, true_params: MachineParams | None = None
    ) -> ParallelRun:
        """Execute the current decision — against ``true_params`` when
        the actual machine differs from the believed one (the drift
        injection used by benchmarks and the CLI demo)."""
        if self.decision is None:
            self.solve()
        assert self.decision is not None
        return run_version_parallel(
            self.decision.version_config(),
            self.n_nodes,
            params=true_params or self.params,
            binding=self.binding,
            memory_per_node=self.memory_budget,
            obs=self.obs,
            **self.decision.run_kwargs(),
        )

    def drift_signals(self, run: ParallelRun) -> dict:
        """The loop's inputs for one finished run: relative
        predicted-vs-measured I/O drift, the worst
        ``cost_model.call_error`` gauge, and ``backend.io_ratio``."""
        assert self.decision is not None, "solve() before drift_signals()"
        p = max(1, run.n_nodes)
        stats = run.total_stats
        measured_io_s = (stats.io_time_s + stats.redist_time_s) / p
        predicted_s = self.model_scale * (
            self.decision.predicted.io_s + self.decision.predicted.net_s
        )
        cost_drift = abs(predicted_s - measured_io_s) / max(
            measured_io_s, 1e-12
        )
        max_call_error = None
        io_ratio = None
        if self.obs is not None and self.obs.config.metrics:
            snap = self.obs.metrics.to_dict()
            errors = [
                abs(float(m.get("value", 0.0)))
                for key, m in snap.items()
                if m.get("type") == "gauge"
                and key.startswith("cost_model.call_error")
            ]
            if errors:
                max_call_error = max(errors)
            for key, m in snap.items():
                if m.get("type") == "gauge" and key.split("{")[0] == (
                    "backend.io_ratio"
                ):
                    io_ratio = float(m.get("value", 0.0))
        return {
            "measured_io_s": measured_io_s,
            "predicted_io_s": predicted_s,
            "cost_drift": cost_drift,
            "max_call_error": max_call_error,
            "io_ratio": io_ratio,
        }

    def _tripped(self, sig: dict) -> str | None:
        cfg = self.config
        if sig["cost_drift"] > cfg.cost_drift_threshold:
            return (
                f"cost drift {sig['cost_drift']:.3f} > "
                f"{cfg.cost_drift_threshold}"
            )
        err = sig["max_call_error"]
        if err is not None and err > cfg.call_error_threshold:
            return (
                f"call error {err:.3f} > {cfg.call_error_threshold}"
            )
        ratio = sig["io_ratio"]
        if ratio is not None:
            lo, hi = cfg.io_ratio_band
            if not (lo <= ratio <= hi):
                return f"io_ratio {ratio:.3f} outside [{lo}, {hi}]"
        return None

    def observe(self, run: ParallelRun) -> dict:
        """Feed one finished run through the loop.  Returns the event
        record (action taken, signals, and — after a recalibration —
        the parameter shift)."""
        if self.decision is None:
            raise AutotuneError("observe() before solve(): no decision")
        sig = self.drift_signals(run)
        self._last_drift = sig
        if self.obs is not None and self.obs.config.metrics:
            m = self.obs.metrics
            m.gauge("autotune.cost_drift").set(sig["cost_drift"])
            if sig["max_call_error"] is not None:
                m.gauge("autotune.max_call_error").set(
                    sig["max_call_error"]
                )
        reason = self._tripped(sig)
        if reason is None:
            self.state = "monitoring"
            return self._emit("in_band", dict(sig), detail=(
                f"drift {sig['cost_drift']:.3f} within threshold"
            ))
        self.drift_events += 1
        if self.obs is not None and self.obs.config.metrics:
            self.obs.metrics.counter("autotune.drift_detected").inc()
        if self.recalibrations >= self.config.max_recalibrations:
            self.state = "monitoring"
            return self._emit(
                "recalibration_cap", dict(sig),
                detail=f"cap {self.config.max_recalibrations} reached",
            )
        self.state = "calibrating"
        old = self.params
        try:
            result = calibrate(
                run, believed=old, min_samples=self.config.min_samples
            )
        except CalibrationError as e:
            self.state = "monitoring"
            return self._emit(
                "calibration_failed", {**sig, "error": str(e)},
                detail=str(e),
            )
        self.params = result.params
        model_now = self._model_cost(self.params)
        if model_now > 0:
            self.model_scale = sig["measured_io_s"] / model_now
        self.recalibrations += 1
        if self.obs is not None and self.obs.config.metrics:
            self.obs.metrics.counter("autotune.recalibrations").inc()
        self.state = "resolving"
        self.solve()
        return self._emit("recalibrated", {
            **sig,
            "reason": reason,
            "fit": result.to_dict(),
            "io_latency_s": {
                "old": old.io_latency_s, "new": self.params.io_latency_s,
            },
            "io_bandwidth_bps": {
                "old": old.io_bandwidth_bps,
                "new": self.params.io_bandwidth_bps,
            },
        }, detail=reason)

    def _model_cost(self, params: MachineParams) -> float:
        """The analytic I/O + interconnect seconds of the *current*
        decision's configuration under ``params`` — what the model
        says the run just measured should have cost."""
        d = self.decision
        assert d is not None
        prog = d.program
        b = prog.binding(self.binding)
        shapes = {a.name: a.shape(b) for a in prog.arrays}
        c = config_cost(
            prog,
            plan_program(
                prog, ooc_tiling, d.memory_budget - d.cache_budget, b,
                shapes, tile_sizes=d.tile_sizes, edges=d.edges,
            ),
            binding=b, shapes=shapes, params=params,
            layouts=d.layout_objects(), n_nodes=d.n_nodes,
            cache_budget=d.cache_budget, cb_nodes=d.cb_nodes,
        )
        return c.io_s + c.net_s

    # -- reporting -----------------------------------------------------

    def _emit(self, event: str, data: dict, *, detail: str = "") -> dict:
        record = {"event": event, "detail": detail, **data}
        self.history.append(record)
        if self.obs is not None:
            self.obs.emit("autotune_event", data=sanitize(record))
            self.obs.note_autotune(self.summary())
        return record

    def summary(self) -> dict:
        """The report-facing snapshot (rendered by
        :func:`repro.obs.report.render_report`'s autotuning section)."""
        out: dict = {
            "state": self.state,
            "recalibrations": self.recalibrations,
            "resolves": self.resolves,
            "drift_events": self.drift_events,
            "drift_threshold": self.config.cost_drift_threshold,
            "model_scale": self.model_scale,
            "params": asdict(self.params),
        }
        if self.decision is not None:
            out["solver"] = self.decision.solver
            out["predicted_cost_s"] = self.decision.predicted_cost_s
            out["knobs"] = [k.to_dict() for k in self.decision.knobs]
        if self._last_drift is not None:
            out["measured_io_s"] = self._last_drift["measured_io_s"]
            out["cost_drift"] = self._last_drift["cost_drift"]
            if self._last_drift["max_call_error"] is not None:
                out["max_call_error"] = self._last_drift["max_call_error"]
        out["history"] = [
            {"event": h["event"], "detail": h["detail"]}
            for h in self.history[-6:]
        ]
        return out


__all__ = ["AutotuneConfig", "AutotuneConfigError", "Autotuner"]
