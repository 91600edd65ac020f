"""Backend equivalence: every data-carrying backend yields identical
array contents and bit-identical folded ``IOStats`` on adi and mxm —
through the direct executor, the independent parallel path, and the
two-phase collective path.  The accounting never touches the backend,
so these are exact-equality assertions, not tolerances.

Every mode prices each tile from its box and layout
(``OutOfCoreArray.runs``), whether and however it moves the data, so
simulate == memory holds on every workload."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.backends import (
    ChunkedBackend,
    MmapBackend,
    SimulatedObjectStore,
)
from repro.engine import OOCExecutor
from repro.experiments.harness import _scaled_params
from repro.optimizer import build_version
from repro.parallel import CollectiveConfig, run_version_parallel
from repro.runtime import OutOfCoreArray
from repro.workloads import (
    analytics_names,
    build_analytics,
    build_workload,
    workload_names,
)

N = 16
PARAMS = replace(_scaled_params(N), n_io_nodes=4)
N_NODES = 4

BACKEND_MAKERS = {
    "mmap": MmapBackend,
    "chunked": ChunkedBackend,
    "object": SimulatedObjectStore,
}


def _cfg(workload):
    return build_version("c-opt", build_workload(workload, N))


def _stats_fields(stats):
    return (
        stats.read_calls, stats.write_calls,
        stats.elements_read, stats.elements_written,
        stats.io_time_s, stats.compute_time_s,
        stats.redist_messages, stats.redist_elements, stats.redist_time_s,
    )


@pytest.mark.parametrize("workload", ["adi", "mxm"])
@pytest.mark.parametrize("kind", sorted(BACKEND_MAKERS))
class TestDirectExecutor:
    def test_contents_and_stats_match_memory(self, workload, kind):
        cfg = _cfg(workload)

        def run(backend):
            with OOCExecutor(
                cfg.program, cfg.layouts, params=PARAMS, tiling=cfg.tiling,
                storage_spec=cfg.storage_spec, backend=backend,
            ) as ex:
                result = ex.run()
                arrays = {
                    a.name: ex.array_data(a.name).copy()
                    for a in cfg.program.arrays
                }
            return result, arrays

        ref, ref_arrays = run("memory")
        res, arrays = run(BACKEND_MAKERS[kind]())
        assert _stats_fields(res.stats) == _stats_fields(ref.stats)
        assert str(res.stats) == str(ref.stats)
        for name, expected in ref_arrays.items():
            np.testing.assert_array_equal(
                arrays[name], expected,
                err_msg=f"{workload}/{kind}: array {name} differs",
            )
        assert res.backend_metrics is not None
        assert res.backend_metrics.ops > 0
        assert ref.backend_metrics is None  # memory backend measures nothing


@pytest.mark.parametrize("workload", ["adi", "mxm"])
@pytest.mark.parametrize("kind", sorted(BACKEND_MAKERS))
class TestParallelPaths:
    def test_independent_folded_stats_identical(self, workload, kind):
        cfg = _cfg(workload)
        # the real in-memory backend is the reference: the simulate
        # default *scales* nest stats by weight instead of executing
        # repetitions, which reorders float additions by one ulp
        base = run_version_parallel(
            cfg, N_NODES, params=PARAMS, backend="memory"
        )
        run = run_version_parallel(cfg, N_NODES, params=PARAMS, backend=kind)
        assert _stats_fields(run.total_stats) == _stats_fields(
            base.total_stats
        )
        assert str(run.total_stats) == str(base.total_stats)
        assert run.time_s == base.time_s
        assert base.backend_metrics is None
        m = run.backend_metrics
        assert m is not None and m.ops > 0
        # the fold really spans the ranks
        assert len([
            r for r in run.node_results if r.backend_metrics is not None
        ]) == N_NODES

    def test_two_phase_collective_folded_stats_identical(self, workload, kind):
        cfg = _cfg(workload)
        coll = CollectiveConfig(mode="auto")
        base = run_version_parallel(
            cfg, N_NODES, params=PARAMS, collective=coll, backend="memory"
        )
        run = run_version_parallel(
            cfg, N_NODES, params=PARAMS, collective=coll, backend=kind
        )
        assert _stats_fields(run.total_stats) == _stats_fields(
            base.total_stats
        )
        assert str(run.total_stats) == str(base.total_stats)
        assert run.time_s == base.time_s


def test_backend_instance_is_cloned_per_rank():
    cfg = _cfg("mxm")
    store = SimulatedObjectStore()
    run = run_version_parallel(cfg, N_NODES, params=PARAMS, backend=store)
    # rank 0 used the given instance, later ranks clones of it — the
    # shared file namespace never collides
    assert run.backend_metrics.ops > 0
    assert run.total_stats.calls > 0


def _spy_on_addresses(monkeypatch):
    regions = []
    enumerate_region = OutOfCoreArray.addresses

    def spy(self, region):
        regions.append(region)
        return enumerate_region(self, region)

    monkeypatch.setattr(OutOfCoreArray, "addresses", spy)
    return regions


@pytest.mark.parametrize("version", ["col", "c-opt", "h-opt"])
@pytest.mark.parametrize("code", workload_names() + analytics_names())
def test_simulate_io_accounting_equals_memory_run(code, version, monkeypatch):
    build = build_workload if code in workload_names() else build_analytics
    cfg = build_version(version, build(code, N), params=PARAMS, n_nodes=N_NODES)
    enumerated = _spy_on_addresses(monkeypatch)
    sim = run_version_parallel(cfg, N_NODES, params=PARAMS)
    assert not enumerated, "a simulate-mode run enumerated addresses"
    real = run_version_parallel(cfg, N_NODES, params=PARAMS, backend="memory")
    # counters exactly; modelled seconds to the last digits (a real run
    # executes a nest's repetitions, a simulated one scales the first)
    got, want = sim.total_stats.to_dict(), real.total_stats.to_dict()
    assert got.keys() == want.keys()
    # compute time is not I/O: simulate mode estimates the iterations of
    # a triangular nest (syr2k), a real run counts them
    del got["compute_time_s"], want["compute_time_s"]
    for key, value in want.items():
        if isinstance(value, float):
            assert math.isclose(got[key], value, rel_tol=1e-9, abs_tol=0.0), key
        else:
            assert got[key] == value, key
    for mine, theirs in zip(sim.node_results, real.node_results):
        np.testing.assert_allclose(
            mine.io_node_load, theirs.io_node_load, rtol=1e-9, atol=0.0
        )


def test_only_data_carrying_runs_enumerate_addresses(monkeypatch):
    cfg = _cfg("adi")
    enumerated = _spy_on_addresses(monkeypatch)
    run_version_parallel(cfg, N_NODES, params=PARAMS)
    assert not enumerated
    # a flat buffer moves a linear-layout tile as a box of its view
    run_version_parallel(cfg, N_NODES, params=PARAMS, backend="memory")
    assert not enumerated
    # whole-chunk files move the elements at their addresses
    run_version_parallel(cfg, N_NODES, params=PARAMS, backend="chunked")
    assert enumerated
