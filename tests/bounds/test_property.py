"""The acceptance property: for every registry + analytics workload,
under every layout strategy and every execution path, the static lower
bound is <= the measured element transfers, and the optimality view's
measured totals equal the folded IOStats exactly."""

from dataclasses import replace

import pytest

from repro.collective import CollectiveConfig
from repro.engine import OOCExecutor
from repro.experiments.harness import _scaled_params
from repro.obs import Observability, report_totals
from repro.optimizer.strategies import VERSION_NAMES, build_version
from repro.parallel import run_version_parallel
from repro.workloads import build_analytics, build_workload
from repro.workloads.registry import analytics_names, workload_names

N = 16
N_NODES = 4
PARAMS = replace(_scaled_params(N), n_io_nodes=4)
#: per-node memory (elements) for the cached SPMD property: roomy
#: enough that weight repetitions find their tiles still resident
CACHED_MEMORY = 4 * N * N

ALL_WORKLOADS = tuple(workload_names()) + tuple(analytics_names())


def _program(name):
    build = build_workload if name in workload_names() else build_analytics
    return build(name, N)


def _check(optimality, stats):
    """bound <= measured per nest, and exact totals vs folded stats."""
    assert optimality, "optimality table must be populated"
    for r in optimality:
        assert r.bound_elements is not None, r.nest
        assert r.bound_elements <= r.measured_elements + 1e-9, (
            f"{r.nest}: bound {r.bound_elements} > measured "
            f"{r.measured_elements} (rule {r.rule})"
        )
    totals = report_totals(optimality)
    sd = stats.to_dict()
    assert all(totals[k] == sd.get(k) for k in totals), (totals, sd)


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_bound_le_measured_all_versions_all_paths(workload):
    program = _program(workload)
    for version in VERSION_NAMES:
        cfg = build_version(version, program, params=PARAMS)

        obs = Observability()
        result = OOCExecutor(
            cfg.program, cfg.layouts, params=PARAMS, tiling=cfg.tiling,
            storage_spec=cfg.storage_spec, obs=obs,
        ).run()
        _check(obs.report.optimality, result.stats)

        obs = Observability()
        run = run_version_parallel(cfg, N_NODES, params=PARAMS, obs=obs)
        _check(obs.report.optimality, run.total_stats)

        obs = Observability()
        run = run_version_parallel(
            cfg, N_NODES, params=PARAMS, collective=CollectiveConfig(),
            obs=obs,
        )
        _check(obs.report.optimality, run.total_stats)


@pytest.mark.parametrize("workload", ["adi", "mxm"])
def test_bound_le_measured_with_warm_cache(workload):
    # a live tile cache keeps data resident across repetitions; the
    # warm-discounted bound must still sit under the measured transfers
    from repro.cache import CacheConfig

    program = _program(workload)
    cfg = build_version("c-opt", program, params=PARAMS)
    obs = Observability()
    result = OOCExecutor(
        cfg.program, cfg.layouts, params=PARAMS, tiling=cfg.tiling,
        storage_spec=cfg.storage_spec, obs=obs,
        cache=CacheConfig(budget_fraction=0.5),
    ).run()
    _check(obs.report.optimality, result.stats)
    for b in obs.bounds.values():
        assert b["warm"] is True


@pytest.mark.parametrize("n_nodes", [1, 2, 4])
@pytest.mark.parametrize("version", ["c-opt", "col"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_bound_le_measured_cached_spmd(workload, version, n_nodes):
    # the SPMD driver must argue a cached run against the same
    # warm-discounted bound the lone executor uses: with most of a
    # generous per-node budget given to the tile cache, repetitions of
    # a weighted nest hit resident tiles, and a cold bound would sit
    # *above* the measured transfers
    from repro.cache import CacheConfig

    cfg = build_version(version, _program(workload), params=PARAMS)
    obs = Observability()
    run = run_version_parallel(
        cfg, n_nodes, params=PARAMS, obs=obs,
        memory_per_node=CACHED_MEMORY,
        cache=CacheConfig(budget_fraction=0.8),
    )
    _check(obs.report.optimality, run.total_stats)
    assert all(b["warm"] is True for b in obs.bounds.values())
    hits = sum(r.cache_metrics.hits for r in run.node_results)
    if any(nest.weight > 1 for nest in cfg.program.nests):
        assert hits > 0, "budget too small for repetitions to hit"
