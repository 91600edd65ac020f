"""Plan sharing is invisible: an SPMD run whose ranks share rank 0's
plans gives exactly what the ranks give when each is run as a lone
``OOCExecutor(node_slice=(r, n))`` that plans (and analyses dependences)
for itself — the permanent oracle, no parent checkout needed."""

from dataclasses import replace
from unittest.mock import Mock

import numpy as np
import pytest

import repro.engine.executor as executor_mod
import repro.engine.plan as plan_mod
from repro.cache import CacheConfig
from repro.collective import CollectiveConfig
from repro.engine import OOCExecutor, plan_nest
from repro.experiments.harness import _scaled_params
from repro.faults import FaultConfig, FaultPlan, ResiliencePolicy
from repro.obs import ProfileConfig
from repro.optimizer.strategies import build_version
from repro.parallel import makespan, run_version_parallel
from repro.parallel.spmd import _collective_run
from repro.runtime import IOStats, ParallelFileSystem
from repro.workloads import build_analytics, build_workload
from repro.workloads.registry import analytics_names, workload_names

N = 16
PARAMS = replace(_scaled_params(N), n_io_nodes=4)
ALL_WORKLOADS = tuple(workload_names()) + tuple(analytics_names())
VERSIONS = ("col", "c-opt", "h-opt")
NODE_COUNTS = (1, 2, 4)


def _program(name, n=N):
    build = build_workload if name in workload_names() else build_analytics
    return build(name, n)


def _variants(cfg):
    """The run knobs that reach the planner or ride beside it."""
    return {
        "plain": {},
        "cache": {"cache": CacheConfig(policy="lru", budget_fraction=0.25)},
        "tile_sizes": {"tile_sizes": {cfg.program.nests[-1].name: 2}},
        "collective": {"collective": CollectiveConfig(mode="auto")},
        "faults": {
            "faults": FaultConfig(
                FaultPlan(seed=3, read_error_rate=0.02, stragglers={1: 2.0}),
                ResiliencePolicy(max_retries=6),
            )
        },
    }


def _budget_and_total(cfg):
    b = cfg.program.binding(None)
    total = sum(int(np.prod(a.shape(b))) for a in cfg.program.arrays)
    return max(64, total // PARAMS.memory_fraction), total


def _lone_ranks(cfg, n_nodes, kw):
    """Every rank as its own executor — no plans and no edges handed
    in — with the driver's budget and file stagger."""
    budget, total = _budget_and_total(cfg)
    results = []
    for rank in range(n_nodes):
        pfs = ParallelFileSystem(PARAMS)
        pfs.advance(rank * max(1, total // n_nodes))
        results.append(OOCExecutor(
            cfg.program, cfg.layouts, params=PARAMS, memory_budget=budget,
            backend="simulate", tiling=cfg.tiling, storage_spec=cfg.storage_spec,
            pfs=pfs, node_slice=(rank, n_nodes) if n_nodes > 1 else None,
            trace=True,
            **{k: v for k, v in kw.items() if k != "collective"},
        ).run())
    return results


def _rank_view(result):
    return (
        result.stats.to_dict(),
        result.io_node_load.tolist(),
        [(nr.nest_name, nr.tiles_executed, nr.trace, nr.trace_weight,
          nr.stats.to_dict()) for nr in result.nest_runs],
        result.peak_memory,
        result.over_budget_tiles,
    )


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_shared_plans_equal_self_planned_ranks(workload):
    program = _program(workload)
    for version in VERSIONS:
        cfg = build_version(version, program, params=PARAMS)
        budget, _ = _budget_and_total(cfg)
        b = cfg.program.binding(None)
        shapes = {a.name: a.shape(b) for a in cfg.program.arrays}
        for label, kw in _variants(cfg).items():
            cache = kw.get("cache")
            plan_budget = budget - (
                cache.resolve_budget(budget) if cache else 0
            )
            for n_nodes in NODE_COUNTS:
                where = f"{workload}/{version}/{label}/p={n_nodes}"
                run = run_version_parallel(
                    cfg, n_nodes, params=PARAMS, trace=True, **kw
                )
                # one plan object per nest, shared by every rank, equal
                # to planning the nest directly
                for j, nest in enumerate(cfg.program.nests):
                    shared = run.node_results[0].nest_runs[j].plan
                    assert all(
                        r.nest_runs[j].plan is shared
                        for r in run.node_results
                    ), where
                    assert shared == plan_nest(
                        nest, cfg.tiling(nest), plan_budget, b, shapes,
                        force_block=kw.get("tile_sizes", {}).get(nest.name),
                    ), where
                lone = _lone_ranks(cfg, n_nodes, kw)
                if "collective" in kw:
                    oracle = _collective_run(
                        cfg.name, n_nodes, PARAMS, lone, kw["collective"]
                    )
                    lone, time_s = oracle.node_results, oracle.time_s
                else:
                    time_s = makespan(lone)
                assert run.time_s == time_s, where
                assert run.total_stats.to_dict() == IOStats.fold(
                    r.stats for r in lone
                ).to_dict(), where
                for got, want in zip(run.node_results, lone):
                    assert _rank_view(got) == _rank_view(want), where


def _counted(monkeypatch, module, name) -> Mock:
    """Wrap a module global in a call-counting Mock (monkeypatch
    restores it)."""
    wrapped = Mock(wraps=getattr(module, name))
    monkeypatch.setattr(module, name, wrapped)
    return wrapped


@pytest.mark.parametrize("workload", ["adi", "mxm", "pipeline"])
def test_eight_ranks_plan_and_analyse_once(workload, monkeypatch):
    cfg = build_version("c-opt", _program(workload), params=PARAMS)
    n_nests = len(cfg.program.nests)
    plans = _counted(monkeypatch, executor_mod, "plan_nest")
    analyses = _counted(monkeypatch, plan_mod, "analyze_nest")

    # the version carries its edges: the run analyses nothing
    run_version_parallel(cfg, 8, params=PARAMS)
    assert (plans.call_count, analyses.call_count) == (n_nests, 0)

    # without them the planner analyses, at most once per nest
    plans.reset_mock()
    run_version_parallel(replace(cfg, edges=None), 8, params=PARAMS)
    assert plans.call_count == n_nests
    assert 0 < analyses.call_count <= n_nests


def test_build_version_analyses_each_final_nest_once(monkeypatch):
    """h-opt's chunk sizing plans every nest too, off the same edges."""
    program = _program("adi")
    analyses = _counted(monkeypatch, plan_mod, "analyze_nest")
    cfg = build_version("h-opt", program, params=PARAMS)
    assert analyses.call_count == len(cfg.program.nests)
    assert sorted(cfg.edges) == sorted(n.name for n in cfg.program.nests)


@pytest.mark.parametrize("real", [False, True])
def test_run_twice_plans_once(real, monkeypatch):
    program = _program("adi")
    plans = _counted(monkeypatch, executor_mod, "plan_nest")
    analyses = _counted(monkeypatch, plan_mod, "analyze_nest")
    ex = OOCExecutor(program, params=PARAMS, backend="memory" if real else "simulate")
    first, second = ex.run(), ex.run()
    assert plans.call_count == len(program.nests)
    # real mode's vectorizability check and the planner share one
    # analysis per nest
    assert analyses.call_count <= len(program.nests)
    for a, b in zip(first.nest_runs, second.nest_runs):
        assert a.plan is b.plan is ex.plans[a.nest_name]


@pytest.mark.parametrize("n_nodes", [1, 4, 16])
@pytest.mark.parametrize("workload", ["adi", "mxm"])
def test_work_counter_is_one_plan_per_nest(workload, n_nodes):
    cfg = build_version("c-opt", _program(workload), params=PARAMS)
    run = run_version_parallel(
        cfg, n_nodes, params=PARAMS, profile=ProfileConfig()
    )
    assert run.profile.work["plan_nest_calls"] == len(cfg.program.nests)
    assert run.profile.work["dependence_pairs"] == 0
    bare = run_version_parallel(
        replace(cfg, edges=None), n_nodes, params=PARAMS,
        profile=ProfileConfig(),
    )
    assert bare.profile.work["plan_nest_calls"] == len(cfg.program.nests)
    # one analysis per nest is the same pair count on any rank count
    assert bare.profile.work["dependence_pairs"] == run_version_parallel(
        replace(cfg, edges=None), 1, params=PARAMS, profile=ProfileConfig(),
    ).profile.work["dependence_pairs"] > 0
