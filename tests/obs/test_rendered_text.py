"""Golden text of every rendered report table.

``rendered_text.json`` holds, byte for byte, what each text renderer
printed at the commit before the tables moved onto one renderer:

- ``render_report`` (through ``_payload_report``, the ``obs report``
  route) of payloads from ``adi`` and ``mxm`` on the direct, independent
  and two-phase paths, with and without faults; one payload carrying
  every section (nest table, redistribution lines, cross-check,
  resilience, drift, optimality, serving, autotuning with a truncated
  knob, profile, metrics and the event-sim line); and a hand-made
  payload for the edge rows (a cross-check mismatch, rows without a
  prediction or a bound, a string serve policy);
- ``render_profile`` and ``python -m repro.obs top`` of fixed profile
  payloads (a trace file and a journal);
- ``python -m repro.obs bounds``, ``--static`` and live;
- ``ServeResult.describe()`` with and without a shared cache and
  faults.

The simulated runs are deterministic and the wall-clock sections are
fixed dicts, so any difference is a changed byte of some table.

Regenerate (only when a change is *meant* to move the text) with
``PYTHONPATH=src python tests/obs/test_rendered_text.py --write``.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from repro.collective import CollectiveConfig
from repro.engine import OOCExecutor
from repro.experiments.harness import _scaled_params
from repro.faults import FaultConfig, FaultPlan, ResiliencePolicy
from repro.obs import Observability, _payload_report, render_profile
from repro.obs.cli import main
from repro.optimizer import build_version
from repro.parallel import run_version_parallel
from repro.serve import (
    ClusterProfile,
    JobScheduler,
    JobSpec,
    ServePolicy,
    TenantConfig,
    WorkloadScript,
)
from repro.workloads import build_workload

N = 16
N_NODES = 2
PARAMS = replace(_scaled_params(N), n_io_nodes=4)
FAULTS = FaultConfig(
    FaultPlan(seed=3, read_error_rate=0.05, stragglers={1: 2.0}),
    ResiliencePolicy(max_retries=6),
)
GOLDEN = Path(__file__).with_name("rendered_text.json")

#: a fixed profile payload: more layers and spans than ``top=2`` shows,
#: and loop-iteration phases
PROFILE = {
    "layers": {
        "rows": [
            {"layer": "runtime.stats", "self_s": 0.125, "calls": 3200},
            {"layer": "parallel", "self_s": 0.0625, "calls": 5134},
            {"layer": "dependence", "self_s": 0.03125, "calls": 155},
            {"layer": "engine.plan", "self_s": 0.0078125, "calls": 12},
        ],
        "unattributed_s": 0.0234375,
        "total_s": 0.25,
        "coverage": 0.90625,
    },
    "hotspots": {"spans": [
        {"name": "run_version_parallel", "count": 1, "total_s": 0.2,
         "self_s": 0.05, "per_call_us": 200000.0},
        {"name": "nest adi.x", "count": 8, "total_s": 0.1,
         "self_s": 0.1, "per_call_us": 12500.0},
        {"name": "collective", "count": 3, "total_s": 0.01,
         "self_s": 0.01},
    ]},
    "work": {
        "plan_runs_calls": 12, "priced_runs": 185949, "sim_events": 440,
        "cache_probes": 0, "plan_nest_calls": 4, "dependence_pairs": 16,
        "addresses_enumerated": 0,
        "python_loop_iters": {"element": 3008, "tile": 64},
    },
}

#: a fixed autotuning summary: every optional line, a knob longer than
#: the ``chosen`` column, and a history
AUTOTUNE = {
    "state": "monitoring", "solver": "milp", "predicted_cost_s": 1.23456,
    "measured_io_s": 1.5, "cost_drift": 0.21, "drift_threshold": 0.2,
    "max_call_error": 0.125, "recalibrations": 1, "resolves": 2,
    "drift_events": 3,
    "knobs": [
        {"knob": "layouts",
         "chosen": {"DU1": "(1, 0)", "DU2": "(0, 1)", "DU3": "(1, 0)"},
         "delta_s": 0.5},
        {"knob": "tile_sizes", "chosen": None, "delta_s": 0.0},
        {"knob": "cache_budget", "chosen": 128, "delta_s": -0.00001},
    ],
    "history": [
        {"event": "solved", "detail": "milp"},
        {"event": "drift", "detail": ""},
    ],
}


def _cfg(workload):
    return build_version(
        "c-opt", build_workload(workload, N), params=PARAMS, n_nodes=N_NODES
    )


def _run_payload(workload, path, faults):
    """The exported payload of one observed run (trace events dropped:
    their wall-clock spans are not rendered by any table)."""
    cfg = _cfg(workload)
    obs = Observability()
    if path == "direct":
        result = OOCExecutor(
            cfg.program, cfg.layouts, params=PARAMS, backend="simulate",
            tiling=cfg.tiling, storage_spec=cfg.storage_spec, obs=obs,
            faults=faults,
        ).run()
        obs.note_stats(result.stats)
    else:
        collective = (
            CollectiveConfig(mode="always") if path == "two-phase" else None
        )
        run_version_parallel(
            cfg, N_NODES, params=PARAMS, obs=obs, faults=faults,
            collective=collective,
        )
    payload = obs.to_payload()
    del payload["traceEvents"]
    return payload


def _serve_result(*, cache, faults):
    tenants = tuple(
        TenantConfig(name, weight=w, cache_quota_elements=256 if cache else 0)
        for name, w in (("alpha", 1.0), ("beta", 2.0), ("gamma-tenant", 1.0))
    )
    jobs = (
        JobSpec("alpha", "adi", n=12),
        JobSpec("beta", "trans", n=12, n_nodes=2),
        JobSpec("gamma-tenant", "mxm", n=12, arrival_s=0.001),
        JobSpec("alpha", "trans", n=12, arrival_s=0.002),
        JobSpec("beta", "adi", n=12, n_nodes=4),
    )
    profile = ClusterProfile(
        n_compute_nodes=2, params=PARAMS, tenants=tenants,
        cache_budget_elements=2048 if cache else 0,
    )
    fault_cfg = None
    if faults:
        fault_cfg = FaultConfig(
            FaultPlan(seed=9, read_error_rate=0.01),
            ResiliencePolicy(max_retries=0),
        )
    return JobScheduler(
        profile, ServePolicy(fairness="wfq", max_job_retries=1),
        faults=fault_cfg,
    ).run(WorkloadScript(seed=0, jobs=jobs))


def _every_section():
    """One payload with every section the report renders."""
    payload = _run_payload("adi", "independent", FAULTS)
    two_phase = _run_payload("adi", "two-phase", None)
    payload["io_report"]["redist"] = two_phase["io_report"]["redist"]
    payload["sim"] = two_phase["sim"]
    payload["serve"] = _serve_result(cache=True, faults=False).summary_dict()
    payload["autotune"] = AUTOTUNE
    payload["profile"] = PROFILE
    return payload


def _edge_payload():
    """Hand-made rows for the branches real runs rarely take."""
    rec = {"read_calls": 3, "write_calls": 1, "elements_read": 30,
           "elements_written": 8, "io_time_s": 0.5}
    return {
        "io_report": {
            "records": [
                {"nest": "a-very-long-nest-name", "array": "ARRAY_NAME_LONG",
                 "node": 0, "path": "independent", **rec},
                {"nest": "n2", "array": "B", "node": 1, "path": "direct",
                 **rec},
            ],
            "redist": [{"nest": "n2", "messages": 4, "elements": 64,
                        "time_s": 0.0125}],
            "drift": [
                {"nest": "n1", "array": "A", "predicted_calls": None,
                 "path": "direct", **rec},
                {"nest": "n2", "array": "B", "predicted_calls": 2.25,
                 "path": "mixed", **rec},
                {"nest": "n3", "array": "C", "predicted_calls": 7.0,
                 "read_calls": 0, "write_calls": 0, "elements_read": 0,
                 "elements_written": 0, "io_time_s": 0.0,
                 "path": "unexecuted"},
            ],
            "optimality": [
                {"nest": "n1", "rule": None, "bound_elements": None,
                 "modeled_elements": None, "path": "direct", "detail": "",
                 **{k: rec[k] for k in rec if k != "io_time_s"}},
                {"nest": "n2", "rule": "hong-kung-contraction",
                 "bound_elements": 19.0, "modeled_elements": 40.5,
                 "path": "independent", "detail": "d",
                 **{k: rec[k] for k in rec if k != "io_time_s"}},
            ],
        },
        "stats": {"read_calls": 6, "write_calls": 1, "elements_read": 60,
                  "elements_written": 16, "retries": 2, "failed_calls": 1,
                  "retry_delay_s": 0.003},
        "serve": {
            "policy": "fifo",
            "tenants": {"t": {"submitted": 2, "completed": 1, "failed": 1,
                              "queue_delay_s": 0.25, "stats": {}}},
        },
        "autotune": {"cost_drift": 0.05, "drift_threshold": 0.2,
                     "knobs": [{"knob": "cb_nodes", "chosen": 2}]},
        "sim": {"makespan_s": 1.0, "waited_requests": 0, "wait_time_s": 0.0},
        "metrics": {
            "h": {"type": "histogram", "count": 0, "mean": 0.0, "min": None,
                  "max": None},
            "c": {"type": "counter", "value": 3},
        },
    }


def _cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _report_cases():
    """Name -> (payload builder, whether the metrics dump is rendered)."""
    for workload in ("adi", "mxm"):
        for path in ("direct", "independent", "two-phase"):
            for faults in (None, FAULTS):
                name = f"{workload}/{path}/{'faults' if faults else 'clean'}"
                yield name, (
                    lambda w=workload, p=path, f=faults: _run_payload(w, p, f),
                    False,
                )
    yield "every-section", (_every_section, True)
    yield "edges", (_edge_payload, True)


REPORTS = dict(_report_cases())


def _texts_report(name):
    build, metrics = REPORTS[name]
    return {
        f"report/{name}": _payload_report(build(), include_metrics=metrics)
    }


def _texts_profile(tmp_path):
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps({"profile": PROFILE}))
    journal = tmp_path / "t.jsonl"
    journal.write_text(json.dumps({"seq": 0, "kind": "profile",
                                   "data": PROFILE}) + "\n")
    spans_only = {"hotspots": PROFILE["hotspots"]}
    no_time = {"layers": {**PROFILE["layers"], "total_s": 0.0}}
    return {
        "profile/top20": render_profile(PROFILE),
        "profile/top2": render_profile(PROFILE, top=2),
        "profile/spans-only": render_profile(spans_only, top=1),
        "profile/work-only": render_profile({"work": PROFILE["work"]}),
        "profile/zero-total": render_profile(no_time),
        "profile/empty": render_profile({}),
        "top/trace": _cli("top", str(trace)),
        "top/journal-top3": _cli("top", str(journal), "--top", "3"),
    }


def _texts_bounds():
    common = ("--n", str(N), "--nodes", str(N_NODES))
    return {
        "bounds/static/adi": _cli(
            "bounds", "--static", "--workload", "adi", *common
        ),
        "bounds/static/mxm-memory": _cli(
            "bounds", "--static", "--workload", "mxm",
            "--memory", "64", *common
        ),
        "bounds/static/window": _cli(
            "bounds", "--static", "--workload", "window", *common
        ),
        "bounds/live/mxm": _cli(
            "bounds", "--workload", "mxm", *common
        ),
        "bounds/live/adi-collective": _cli(
            "bounds", "--workload", "adi", "--collective",
            "--mode", "always", *common
        ),
    }


def _texts_describe():
    return {
        f"describe/{'cache' if cache else 'plain'}"
        f"{'-faults' if faults else ''}": _serve_result(
            cache=cache, faults=faults
        ).describe()
        for cache in (False, True)
        for faults in (False, True)
    }


WANT = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def _check(got):
    for key, text in got.items():
        assert text == WANT[key], f"{key}: the rendered text moved"


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_text(name):
    _check(_texts_report(name))


def test_profile_and_top_text(tmp_path):
    _check(_texts_profile(tmp_path))


def test_bounds_text():
    _check(_texts_bounds())


def test_serve_describe_text():
    _check(_texts_describe())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    texts = {}
    for name in REPORTS:
        texts.update(_texts_report(name))
    with tempfile.TemporaryDirectory() as tmp:
        texts.update(_texts_profile(Path(tmp)))
    texts.update(_texts_bounds())
    texts.update(_texts_describe())
    GOLDEN.write_text(json.dumps(texts, indent=1, sort_keys=True) + "\n")
