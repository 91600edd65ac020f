"""Deterministic work counters + the layer table (repro.obs.profile).

Three findings asserted:

- **The profiled table sweep's work counters are gated.**  Per workload
  x version cell: ``plan_nest_calls`` / ``dependence_pairs`` stay at
  one nest's worth however many ranks run, and
  ``addresses_enumerated`` is 0 wherever no data moves (simulate mode
  prices a tile from its box and layout; only a data-carrying run on
  the address path — a unit-granular file, a blocked layout — computes
  element addresses).  Where the wall time goes is a separate,
  ungated reading: outside ``--smoke`` one sweep cell is run again
  under cProfile and its top layer and the layer table's coverage are
  recorded (``python -m repro.obs profile`` prints the whole table).
- **Work counters are bit-identical across repeat runs**, on the
  direct-executor, independent-parallel and two-phase-collective paths
  — integers end to end, so the regression gate holds them to exact
  equality (wall time stays excluded from the gate).
- **Pricing work is conserved across layout strategies** where it must
  be: the interpreted element-loop iteration count is a property of
  the loop nests, not the layout, so every pure data-layout strategy
  agrees on it exactly — and on the rectangular-nest workloads (mxm,
  adi) all six strategies do.  Loop-transforming strategies may
  legitimately re-estimate non-rectangular nests (l-opt interchanges
  syr2k's triangular nest), which is why the conservation claim is
  scoped to strategies that move data, not loops.

Only the deterministic integer counters enter the regression-gated
``--json`` payload; the wall-derived layer reading is recorded (outside
``--smoke``) in ``BENCH_profile.json`` at the repo root.
"""

import json
import pathlib
from dataclasses import replace

from conftest import run_once

from repro.engine import OOCExecutor
from repro.experiments.harness import _scaled_params
from repro.obs import ProfileConfig
from repro.optimizer.strategies import VERSION_NAMES, build_version
from repro.parallel import CollectiveConfig, run_version_parallel
from repro.workloads import build_workload

SWEEP_N = 32
SMOKE_N = 16
N_NODES = 4

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_profile.json"
)

#: sections accumulated across this module's tests, written as one
#: artifact by each full-size test as it lands
_SECTIONS: dict = {}


def _params(n):
    return replace(_scaled_params(n), n_io_nodes=4)


def _flat_work(work):
    """A run's work delta as a flat, int-only dict (the gated shape)."""
    out = {
        k: int(v) for k, v in work.items() if k != "python_loop_iters"
    }
    for phase, n in work["python_loop_iters"].items():
        out[f"python_loop_iters.{phase}"] = int(n)
    return out


def test_profiled_sweep_work_counters(benchmark, smoke, json_out):
    """The profiled table sweep: gated work counters per workload x
    version cell."""
    n = SMOKE_N if smoke else SWEEP_N
    workloads = ("mxm", "adi") if smoke else ("mxm", "adi", "syr2k")
    versions = ("col", "c-opt") if smoke else ("col", "row", "c-opt")

    def sweep():
        rows = {}
        for wl in workloads:
            prog = build_workload(wl, n)
            for ver in versions:
                cfg = build_version(ver, prog)
                run = run_version_parallel(
                    cfg, N_NODES, params=_params(n), profile=ProfileConfig(),
                )
                rows[f"{wl}/{ver}"] = {
                    "nests": len(cfg.program.nests),
                    "work": _flat_work(run.profile.work),
                }
        return rows

    rows = run_once(benchmark, sweep)
    # gate only the deterministic integers
    json_out(
        "profile_work_by_cell",
        {cell: r["work"] for cell, r in rows.items()},
        n=n, nodes=N_NODES, workloads=workloads, versions=versions,
    )
    print()
    for cell, r in rows.items():
        print(f"  {cell:12s} priced_runs={r['work']['priced_runs']}")
    for cell, r in rows.items():
        # planned once per run, not once per rank; edges came with the
        # version, so the run analysed nothing
        assert r["work"]["plan_nest_calls"] == r["nests"], (cell, r["work"])
        assert r["work"]["dependence_pairs"] == 0, (cell, r["work"])
        # simulate mode: runs come from the box and the layout
        assert r["work"]["addresses_enumerated"] == 0, (cell, r["work"])
    if not smoke:
        # wall-derived, so never gated: where one cell's time goes
        run = run_version_parallel(
            build_version("c-opt", build_workload("adi", n)), N_NODES,
            params=_params(n), profile=ProfileConfig(cprofile=True),
        )
        layers = run.profile.layers
        top = layers["rows"][0]
        print(
            f"  adi/c-opt under cProfile: top layer {top['layer']} "
            f"({top['self_s'] / layers['total_s']:.0%}), "
            f"coverage {layers['coverage']:.3f}"
        )
        assert layers["coverage"] > 0.5
        _SECTIONS["hotspots"] = {
            "n": n, "nodes": N_NODES, "rows": rows,
            "layer_table": {
                "cell": "adi/c-opt",
                "top_layer": top["layer"],
                "top_share": top["self_s"] / layers["total_s"],
                "coverage": layers["coverage"],
            },
        }
        _write_artifact()


def test_work_counters_repeat_bit_identical(benchmark, smoke, json_out):
    """The same configuration profiled twice yields byte-equal work
    deltas on all three execution paths — the property that lets the
    gate exact-match them."""
    n = SMOKE_N if smoke else SWEEP_N
    workloads = ("adi",) if smoke else ("adi", "mxm")

    def once(wl):
        prog = build_workload(wl, n)
        cfg = build_version("c-opt", prog)
        direct = OOCExecutor(
            cfg.program, cfg.layouts, params=_params(n), tiling=cfg.tiling,
            storage_spec=cfg.storage_spec, profile=ProfileConfig(),
        ).run()
        indep = run_version_parallel(
            cfg, N_NODES, params=_params(n), profile=ProfileConfig(),
        )
        two_phase = run_version_parallel(
            cfg, N_NODES, params=_params(n),
            collective=CollectiveConfig(mode="always", simulator="event"),
            profile=ProfileConfig(),
        )
        return {
            "direct": _flat_work(direct.profile.work),
            "independent": _flat_work(indep.profile.work),
            "two_phase": _flat_work(two_phase.profile.work),
        }

    def sweep():
        return {wl: (once(wl), once(wl)) for wl in workloads}

    pairs = run_once(benchmark, sweep)
    rows = {}
    print()
    for wl, (first, second) in pairs.items():
        assert first == second, (
            f"{wl}: work counters drifted between repeat runs — "
            f"{first} != {second}"
        )
        rows[wl] = first
        print(
            f"  {wl:6s} repeat-identical across "
            f"{sorted(first)} paths: direct/independent/two_phase"
        )
        assert first["two_phase"]["sim_events"] > 0
        # the direct executor moves data (in-memory backend) without
        # enumerating addresses: a linear-layout tile is a box of the
        # buffer's strided view; the two parallel paths only account
        assert first["direct"]["addresses_enumerated"] == 0
        assert first["independent"]["addresses_enumerated"] == 0
        assert first["two_phase"]["addresses_enumerated"] == 0
    json_out(
        "profile_work_repeatable", rows,
        n=n, nodes=N_NODES, workloads=workloads,
    )
    if not smoke:
        _SECTIONS["repeatability"] = {"n": n, "rows": rows}
        _write_artifact()


#: strategies that only change data layout (file layouts, storage
#: order) — never the loop structure, so element-loop work is conserved
LAYOUT_ONLY = ("col", "row", "d-opt", "h-opt")

#: rectangular-nest workloads where even the loop-transforming
#: strategies preserve the iteration estimate exactly
RECTANGULAR = ("mxm", "adi")


def test_element_iters_invariant_across_layouts(benchmark, smoke, json_out):
    """The interpreted element-loop iteration count is conserved across
    every data-layout strategy (layouts move data, not compute), and
    across all six strategies on rectangular-nest workloads."""
    n = SMOKE_N if smoke else SWEEP_N
    workloads = ("mxm", "adi") if smoke else ("mxm", "adi", "syr2k")

    def sweep():
        rows = {}
        for wl in workloads:
            prog = build_workload(wl, n)
            per_version = {}
            for ver in VERSION_NAMES:
                run = run_version_parallel(
                    build_version(ver, prog), N_NODES, params=_params(n),
                    profile=ProfileConfig(),
                )
                w = run.profile.work
                per_version[ver] = int(
                    w["python_loop_iters"].get("element", 0)
                )
            rows[wl] = per_version
        return rows

    rows = run_once(benchmark, sweep)
    json_out(
        "profile_element_iters", rows,
        n=n, nodes=N_NODES, workloads=workloads, versions=VERSION_NAMES,
    )
    print()
    for wl, per_version in rows.items():
        layout_iters = {per_version[v] for v in LAYOUT_ONLY}
        print(
            f"  {wl:6s} element iters: "
            + " ".join(f"{v}={n_it}" for v, n_it in per_version.items())
        )
        assert len(layout_iters) == 1, (
            f"{wl}: element-loop work not conserved across data-layout "
            f"strategies: {per_version}"
        )
        assert layout_iters.pop() > 0
        if wl in RECTANGULAR:
            all_iters = set(per_version.values())
            assert len(all_iters) == 1, (
                f"{wl}: rectangular nests must conserve element work "
                f"under every strategy: {per_version}"
            )
    if not smoke:
        _SECTIONS["element_iters"] = {"n": n, "rows": rows}
        _write_artifact()


def _write_artifact():
    payload = {"sweep_n": SWEEP_N, **_SECTIONS}
    ARTIFACT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"  wrote {ARTIFACT.name}")
