"""Joint co-optimization and the drift-recalibration loop, measured.

Four findings, all asserted:

- **Joint beats each baseline alone.**  On the blocked stencil (adi)
  and the multi-stage analytics pipeline, the joint decision — layouts
  + tiles + cache budget + aggregators chosen together against the
  machine model — produces a strictly lower measured makespan than
  both the paper's greedy global algorithm (``c-opt``) and the
  layout-only ILP: co-optimizing the machine knobs is worth real time,
  not just modeled time.  (The wins need the knobs to matter: this
  test runs at the full sweep size even under ``--smoke``; it costs
  ~1.5 s.)
- **The decisions stay near the I/O lower bound.**  The joint run's
  optimality ratio (measured transfers over the :mod:`repro.bounds`
  static bound) is pinned in the payload per workload, tying the
  autotuner's output to the bound telemetry, and asserted ``>= 1``:
  a decision that runs a tile cache is argued against the
  warm-discounted bound, which stays sound under resident reuse.
- **The loop recovers from injected drift.**  Against a machine 3x
  slower in latency and 2x slower in bandwidth than believed, one
  ``observe()`` round recalibrates: the refitted parameters equal the
  true machine's to machine precision (the simulated pricing is
  exactly linear) and the follow-up drift lands inside the threshold.

- **The model is the runtime's arithmetic, and a solve plans once.**
  Per program: |predicted − measured| / measured of the decided run,
  with the default space (the cache credit in play) and with cache and
  aggregators off (only the representative tile is modelled), recorded
  — not thresholded per program — next to the ``plan_nest`` calls of
  the solve, which are asserted to be its distinct (nest, plan budget,
  block) triples.

Leaf keys entering the regression gate: ``*_time_s``, ``makespan``
(lower-better), ``predicted_cost_s``/``cost_drift``/``drift_before``/
``drift_after`` (lower-better via the ``predicted_cost``/``drift``
policy fragments) and the exact-match ``solver`` string — a silent
solver fallback in CI fails the gate as a changed decision, not as a
perf delta.
"""

import json
import pathlib
from dataclasses import replace

from conftest import run_once

import repro.autotune.model as model
from repro.autotune import AutotuneConfig, Autotuner, TuneSpace, solve_joint
from repro.experiments.harness import _scaled_params
from repro.obs import Observability
from repro.obs.profile import WORK
from repro.optimizer import build_version, optimize_program_ilp
from repro.optimizer.strategies import VersionConfig
from repro.parallel import run_version_parallel
from repro.transforms.tiling import ooc_tiling
from repro.workloads import WORKLOADS, build_analytics, build_workload
from repro.workloads.registry import workload_names

SWEEP_N = 32
SMOKE_N = 16
N_NODES = 4

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_autotune.json"

_SECTIONS: dict = {}


def _program(name, n):
    build = build_workload if name in workload_names() else build_analytics
    return build(name, n)


def _params(n):
    return replace(_scaled_params(n), n_io_nodes=4)


def _measure(cfg, params, obs=None, **kw):
    return run_version_parallel(
        cfg, N_NODES, params=params, obs=obs, **kw
    )


def test_joint_vs_baselines(benchmark, smoke, json_out):
    """Measured makespan of the joint decision vs the greedy global
    algorithm and the layout-only ILP, plus the bound ratio of the
    joint run."""
    # the smoke sizes shrink the arrays until tile/cache knobs stop
    # mattering; run the full size always (~1.5 s total)
    n = SWEEP_N
    workloads = ("adi", "pipeline")

    def sweep():
        rows = {}
        params = _params(n)
        for wl in workloads:
            prog = _program(wl, n)
            greedy = _measure(build_version("c-opt", prog), params)
            gd = optimize_program_ilp(prog)
            ilp = _measure(VersionConfig(
                "ilp", gd.program, gd.layout_objects(), ooc_tiling
            ), params)
            decision = solve_joint(prog, params=params, n_nodes=N_NODES)
            obs = Observability()
            joint = _measure(
                decision.version_config(), params, obs=obs,
                **decision.run_kwargs()
            )
            measured = sum(
                r.measured_elements for r in obs.report.optimality
            )
            bound = sum(r.bound_elements for r in obs.report.optimality)
            rows[wl] = {
                "greedy_time_s": greedy.time_s,
                "ilp_time_s": ilp.time_s,
                "joint_time_s": joint.time_s,
                "solver": decision.solver,
                "predicted_cost_s": decision.predicted_cost_s,
                "cache_budget": decision.cache_budget,
                "optimality_ratio": measured / bound,
            }
        return rows

    rows = run_once(benchmark, sweep)
    json_out("autotune_joint", {"rows": rows},
             n=n, nodes=N_NODES, workloads=workloads)
    print()
    for wl, r in rows.items():
        print(f"  {wl:9s} greedy={r['greedy_time_s']:.4f}s "
              f"ilp={r['ilp_time_s']:.4f}s "
              f"joint={r['joint_time_s']:.4f}s "
              f"({r['solver']}, ratio {r['optimality_ratio']:.2f}x)")
    for wl, r in rows.items():
        fixed_best = min(r["greedy_time_s"], r["ilp_time_s"])
        assert r["joint_time_s"] < fixed_best, (
            f"{wl}: joint ({r['joint_time_s']:.4f}s) did not strictly "
            f"beat both baselines (best {fixed_best:.4f}s)"
        )
        # a bound is only useful if sound: cached decisions are argued
        # against the warm-discounted bound, so measured >= bound holds
        assert r["optimality_ratio"] >= 1.0
    if not smoke:
        _SECTIONS["joint"] = {"n": n, "nodes": N_NODES, "rows": rows}
        _write_artifact()


def test_drift_recovery(benchmark, smoke, json_out):
    """Inject machine drift, let the loop recalibrate, and verify the
    predicted/measured agreement recovers inside the threshold."""
    n = SMOKE_N if smoke else SWEEP_N
    workload = "adi"
    latency_factor, bandwidth_factor = 3.0, 2.0

    def sweep():
        params = _params(n)
        true = replace(
            params,
            io_latency_s=params.io_latency_s * latency_factor,
            io_bandwidth_bps=params.io_bandwidth_bps / bandwidth_factor,
        )
        tuner = Autotuner(
            _program(workload, n), params=params, n_nodes=N_NODES,
            config=AutotuneConfig(),
        )
        tuner.solve()
        first = tuner.observe(tuner.run_once(true_params=true))
        second = tuner.observe(tuner.run_once(true_params=true))
        return {
            "drift_before": first["cost_drift"],
            "drift_after": second["cost_drift"],
            "first_event": first["event"],
            "second_event": second["event"],
            "recalibrations": tuner.recalibrations,
            "resolves": tuner.resolves,
            "fitted_latency_s": tuner.params.io_latency_s,
            "fitted_bandwidth_bps": tuner.params.io_bandwidth_bps,
            "true_latency_s": true.io_latency_s,
            "true_bandwidth_bps": true.io_bandwidth_bps,
            "threshold": tuner.config.cost_drift_threshold,
        }

    row = run_once(benchmark, sweep)
    json_out("autotune_drift", {"row": row},
             n=n, nodes=N_NODES, workload=workload,
             latency_factor=latency_factor,
             bandwidth_factor=bandwidth_factor)
    print()
    print(f"  drift {row['drift_before']:.3f} -> {row['drift_after']:.3f} "
          f"(threshold {row['threshold']}) after "
          f"{row['recalibrations']} recalibration(s)")
    assert row["first_event"] == "recalibrated", (
        f"injected drift {row['drift_before']:.3f} did not trip the loop"
    )
    assert row["drift_before"] > row["threshold"]
    assert row["second_event"] == "in_band", (
        f"post-recalibration drift {row['drift_after']:.3f} still over "
        f"threshold {row['threshold']}"
    )
    assert row["drift_after"] <= row["threshold"]
    # the simulated pricing is exactly linear: the fit recovers the
    # true machine to float tolerance
    assert abs(row["fitted_latency_s"] - row["true_latency_s"]) \
        <= 1e-9 * row["true_latency_s"]
    assert abs(row["fitted_bandwidth_bps"] - row["true_bandwidth_bps"]) \
        <= 1e-9 * row["true_bandwidth_bps"]
    if not smoke:
        _SECTIONS["drift"] = {"n": n, "nodes": N_NODES, "row": row}
        _write_artifact()


def _counted_solve(prog, params, space):
    """``solve_joint`` plus its ``plan_nest`` call count — asserted to
    be the distinct (nest, plan budget, block) triples it asked for."""
    asked = []
    plan_nest = model.plan_nest

    def spy(nest, spec, memory_budget, *args, force_block=None, **kw):
        asked.append((nest.name, memory_budget, force_block))
        return plan_nest(
            nest, spec, memory_budget, *args, force_block=force_block, **kw
        )

    before = WORK.plan_nest_calls
    model.plan_nest = spy
    try:
        decision = solve_joint(
            prog, params=params, n_nodes=N_NODES, space=space
        )
    finally:
        model.plan_nest = plan_nest
    planned = WORK.plan_nest_calls - before
    assert planned == len(set(asked)), (
        f"{prog.name}: {planned} plan_nest calls for {len(set(asked))} "
        f"distinct (nest, budget, block) plans"
    )
    return decision, planned


def test_model_accuracy(benchmark, smoke, json_out):
    """Prediction error of the decided run per program, cached and
    uncached, and the planning work of each solve."""
    n = SWEEP_N  # as above: the knobs stop mattering at smoke sizes
    programs = (*WORKLOADS, "pipeline")
    spaces = {
        "": None,
        "uncached_": TuneSpace(cache_fractions=(0.0,), cb_nodes=(None,)),
    }

    def sweep():
        params = _params(n)
        rows = {}
        for wl in programs:
            prog = _program(wl, n)
            rows[wl] = row = {}
            for prefix, space in spaces.items():
                decision, planned = _counted_solve(prog, params, space)
                run = _measure(
                    decision.version_config(), params,
                    **decision.run_kwargs()
                )
                row[f"{prefix}pred_err"] = (
                    abs(decision.predicted_cost_s - run.time_s) / run.time_s
                )
                row[f"{prefix}plan_nest_calls"] = planned
        return rows

    rows = run_once(benchmark, sweep)
    means = {
        f"mean_{prefix}pred_err":
            sum(r[f"{prefix}pred_err"] for r in rows.values()) / len(rows)
        for prefix in spaces
    }
    json_out("autotune_model", {"rows": rows, **means},
             n=n, nodes=N_NODES, programs=programs)
    print()
    for wl, r in rows.items():
        print(f"  {wl:9s} pred_err={r['pred_err']:.3f} "
              f"uncached={r['uncached_pred_err']:.3f} "
              f"plan_nest={r['plan_nest_calls']}"
              f"/{r['uncached_plan_nest_calls']}")
    print(f"  mean      pred_err={means['mean_pred_err']:.3f} "
          f"uncached={means['mean_uncached_pred_err']:.3f}")
    if not smoke:
        _SECTIONS["model"] = {"n": n, "nodes": N_NODES, "rows": rows, **means}
        _write_artifact()


def _write_artifact():
    payload = {"sweep_n": SWEEP_N, **_SECTIONS}
    ARTIFACT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"  wrote {ARTIFACT.name}")
