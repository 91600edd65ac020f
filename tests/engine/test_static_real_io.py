"""A real walk's accounting is static, like a simulated one: without a
cache or a fault injector the executor records a nest's I/O up front
(``_DirectTileIO.account``, batches of ``_BATCH_RUNS`` runs) and the
per-tile loop only moves data.

Until this module's subject landed, a data-carrying run recorded tile by
tile and priced every transfer from the addresses of its elements
(``runs_of(addresses(region))``).  That recording is kept here as the
reference loop (:func:`parent_recording`) and is the oracle: folded
stats, per-I/O-node load and per-nest call tables, bit for bit."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.engine import OOCExecutor
from repro.engine.executor import _by_store
from repro.experiments.harness import _scaled_params
from repro.faults import FaultConfig, FaultPlan, ResiliencePolicy
from repro.optimizer import build_version
from repro.runtime import IOContext, IOStats
from repro.runtime.file import OOCFile
from repro.runtime.ooc_array import LinearStore, runs_of
from repro.runtime.stats import CallTable
from repro.workloads import build_workload

from .test_walk_snapshot import _rank_view

N = 12
PARAMS = replace(_scaled_params(N), n_io_nodes=3)
#: rectangular / reduction with an interleaved chunk store / triangular
CASES = [("adi", "col"), ("mxm", "h-opt"), ("syr2k", "c-opt")]
BACKENDS = ["memory", "mmap", "chunked"]
IO_FIELDS = (
    "read_calls", "write_calls", "elements_read", "elements_written",
    "io_time_s",
)


def _executor(workload, version, backend, **kw):
    cfg = build_version(version, build_workload(workload, N), params=PARAMS)
    return OOCExecutor(
        cfg.program, cfg.layouts, params=PARAMS, tiling=cfg.tiling,
        storage_spec=cfg.storage_spec, backend=backend, trace=True, **kw
    )


def parent_recording(ex):
    """The parent's per-tile accounting of a real walk: every tile's
    reads, then its writes, one ``record_runs`` per store, a linear
    store's runs decomposed from the address of every element.  Returns
    the folded ``(stats, io_node_load, [trace per nest])``."""
    total = IOContext(ex.params)
    traces = []
    for nest in ex.program.nests:
        passes = []
        for _ in range(nest.weight):
            ctx = IOContext(ex.params, trace=True)
            for _, fps, reads in ex._tiles(nest):
                writes = [(a, fp[0]) for a, fp in fps.items() if fp[2]]
                for is_write, requests in ((False, reads), (True, writes)):
                    for store, reqs in _by_store(ex._stores, requests):
                        if not isinstance(store, LinearStore):
                            store.file.account_runs(
                                ctx, *store.chunk_runs(reqs), is_write
                            )
                            continue
                        arrays = [store.arrays[name] for name, _ in reqs]
                        offsets, lengths = zip(*(
                            runs_of(arr.addresses(region))
                            for arr, (_, region) in zip(arrays, reqs)
                        ))
                        ctx.record_runs(
                            [arr.file.base_elem for arr in arrays],
                            np.concatenate(offsets), np.concatenate(lengths),
                            [is_write] * len(arrays), [o.size for o in offsets],
                        )
            total.stats = total.stats.merge(ctx.stats)
            total.io_node_load += ctx.io_node_load
            passes.append(ctx.trace)
        traces.append(CallTable.concat(passes))
    return total.stats, total.io_node_load, traces


def _io(stats: IOStats):
    return tuple(getattr(stats, f) for f in IO_FIELDS)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workload, version", CASES)
def test_a_real_walk_is_recorded_once_like_a_simulated_one(
    workload, version, backend
):
    with _executor(workload, version, backend) as ex:
        assert ex.real and ex._static_io
        result = ex.run()
        metrics = result.backend_metrics
        want_stats, want_load, want_traces = parent_recording(ex)
        data = {name: ex.array_data(name) for name in ex.shapes}
    # the parent's per-tile, per-element recording
    assert _io(result.stats) == _io(want_stats)
    assert np.array_equal(result.io_node_load, want_load)
    assert [nr.trace for nr in result.nest_runs] == want_traces
    # the same walk recorded tile by tile through read_tiles/write_tiles:
    # everything equal, the backend's measured operations included
    with _executor(workload, version, backend) as tiled:
        tiled._static_io = False
        by_tile = tiled.run()
        assert _rank_view(by_tile) == _rank_view(result)
        for name, want in data.items():
            assert np.array_equal(tiled.array_data(name), want)
    if metrics is not None:
        counters = ("get_ops", "put_ops", "bytes_read", "bytes_written")
        assert [getattr(metrics, c) for c in counters] == [
            getattr(by_tile.backend_metrics, c) for c in counters
        ]
        assert metrics.ops > 0
    # and the simulate run of the same configuration, which runs a
    # weighted nest once and scales it (a float's last digit may differ
    # from the sum over executed repetitions)
    sim = _executor(workload, version, "simulate").run()
    assert result.stats.to_dict() == pytest.approx(
        sim.stats.to_dict(), rel=1e-12, abs=0.0
    )
    np.testing.assert_allclose(
        result.io_node_load, sim.io_node_load, rtol=1e-12, atol=0.0
    )
    assert [nr.trace for nr in result.nest_runs] == [
        CallTable.concat([nr.trace] * nr.trace_weight) for nr in sim.nest_runs
    ]


@pytest.mark.parametrize(
    "option",
    [
        {"cache": CacheConfig(budget_fraction=0.25)},
        {"faults": FaultConfig(
            FaultPlan(seed=7, read_error_rate=0.05),
            ResiliencePolicy(max_retries=8),
        )},
    ],
    ids=["cache", "faults"],
)
def test_a_cache_or_an_injector_keeps_recording_per_tile(option):
    """Their I/O depends on what happened before, so nothing is recorded
    up front — and the data-carrying run still accounts what the
    simulate run of the same configuration accounts."""
    with _executor("adi", "col", "memory", **option) as real:
        assert not real._static_io
        got = real.run()
    sim = _executor("adi", "col", "simulate", **option)
    assert not sim._static_io
    want = sim.run()
    assert got.stats == want.stats
    assert got.stats.to_dict() == want.stats.to_dict()
    assert np.array_equal(got.io_node_load, want.io_node_load)
    assert [sorted(nr.trace) for nr in got.nest_runs] == [
        sorted(nr.trace) for nr in want.nest_runs
    ]


def test_a_backend_error_mid_nest_releases_the_tile(monkeypatch):
    calls = {"n": 0}
    load_box = OOCFile.load_box

    def failing(self, amap, base, region):
        calls["n"] += 1
        if calls["n"] == 5:
            raise OSError("disk went away")
        return load_box(self, amap, base, region)

    with _executor("adi", "col", "memory") as ex:
        monkeypatch.setattr(OOCFile, "load_box", failing)
        with pytest.raises(OSError, match="disk went away"):
            ex.run()
        assert calls["n"] == 5
        assert ex.memory.in_use == 0
