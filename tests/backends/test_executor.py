"""Executor and runtime integration: backend selection, dtype
threading, the files' legacy ``real=`` aliases, obs gauges."""

from dataclasses import replace

import numpy as np
import pytest

from repro.backends import (
    BackendError,
    ChunkedBackend,
    MemoryBackend,
    MmapBackend,
    SimulatedObjectStore,
)
from repro.engine import OOCExecutor
from repro.experiments.harness import _scaled_params
from repro.obs import Observability
from repro.optimizer import build_version
from repro.parallel import run_version_parallel
from repro.runtime import ParallelFileSystem, layout_chunk_elements
from repro.runtime.file import OOCFile
from repro.layout import BlockedLayout, LinearLayout
from repro.linalg import IMat
from repro.workloads import build_workload

N = 16
PARAMS = replace(_scaled_params(N), n_io_nodes=4)


def _cfg(workload="mxm"):
    return build_version("c-opt", build_workload(workload, N))


def _make(cfg, **kw):
    return OOCExecutor(
        cfg.program, cfg.layouts, params=PARAMS, tiling=cfg.tiling,
        storage_spec=cfg.storage_spec, **kw,
    )


class TestBackendSelection:
    def test_default_is_memory(self):
        ex = _make(_cfg())
        assert isinstance(ex.backend, MemoryBackend)
        assert ex.real is True

    def test_real_false_is_simulate(self):
        ex = _make(_cfg(), backend="simulate")
        assert ex.backend.kind == "simulate"
        assert ex.real is False

    def test_kind_string(self):
        with _make(_cfg(), backend="object") as ex:
            assert isinstance(ex.backend, SimulatedObjectStore)
            assert ex.real is True

    def test_instance(self):
        b = MmapBackend()
        with _make(_cfg(), backend=b) as ex:
            assert ex.backend is b

    def test_legacy_real_flags_bit_identical(self):
        # the legacy flags live on only in the low-level files, where
        # they are the two default backends
        pfs = ParallelFileSystem(PARAMS)
        assert OOCFile("a", 8, pfs, real=True).backend.kind == "memory"
        assert OOCFile("b", 8, pfs, real=False).backend.kind == "simulate"
        cfg = _cfg()
        default = _make(cfg).run()
        explicit = _make(cfg, backend="memory").run()
        sim = _make(cfg, backend="simulate").run()
        assert str(default.stats) == str(explicit.stats) == str(sim.stats)

    def test_executor_real_contradicting_backend_errors(self):
        # the executor takes no `real=` alias; a file still checks the pair
        with pytest.raises(TypeError, match="real"):
            _make(_cfg(), real=False)
        pfs = ParallelFileSystem(PARAMS)
        with pytest.raises(BackendError, match="contradicts"):
            OOCFile("a", 8, pfs, real=False, backend="memory")
        # an agreeing pair stays accepted
        assert OOCFile("b", 8, pfs, real=True, backend="memory").real

    def test_driver_real_contradicting_backend_errors(self):
        with pytest.raises(TypeError, match="real"):
            run_version_parallel(_cfg(), 2, params=PARAMS, real=True)
        # the driver's default stays simulate-only, the executor's in-memory
        run = run_version_parallel(_cfg(), 2, params=PARAMS)
        explicit = run_version_parallel(
            _cfg(), 2, params=PARAMS, backend="simulate"
        )
        assert str(run.total_stats) == str(explicit.total_stats)

    def test_run_result_backend_metrics(self):
        with _make(_cfg(), backend="chunked") as ex:
            r = ex.run()
        assert r.backend_metrics is not None
        assert r.backend_metrics.ops > 0
        assert _make(_cfg()).run().backend_metrics is None

    def test_close_releases_files(self):
        b = MmapBackend()
        root = b.root
        import os

        with _make(_cfg(), backend=b) as ex:
            ex.run()
            assert os.path.isdir(root)
        assert not os.path.exists(root)


class TestDtypeThreading:
    def test_executor_dtype_reaches_files(self):
        cfg = _cfg()
        with _make(cfg, backend="mmap", dtype=np.float32) as ex:
            r = ex.run()
            for a in cfg.program.arrays:
                assert ex.array_data(a.name).dtype == np.float32
        assert r.stats.calls > 0

    def test_oocfile_default_dtype(self):
        pfs = ParallelFileSystem(PARAMS)
        f = OOCFile("A", 64, pfs)
        assert f.dtype == np.dtype(np.float64)

    def test_oocfile_custom_dtype_roundtrip(self):
        pfs = ParallelFileSystem(PARAMS)
        f = OOCFile("A", 64, pfs, dtype=np.int32)
        f.scatter(np.arange(4, dtype=np.int64), np.arange(4))
        out = f.gather(np.arange(4, dtype=np.int64))
        assert out.dtype == np.int32
        np.testing.assert_array_equal(out, np.arange(4, dtype=np.int32))

    def test_oocfile_invalid_dtype(self):
        pfs = ParallelFileSystem(PARAMS)
        with pytest.raises(BackendError):
            OOCFile("A", 64, pfs, dtype=np.complex128)

    def test_oocfile_real_property_reflects_backend(self):
        pfs = ParallelFileSystem(PARAMS)
        assert OOCFile("A", 8, pfs).real is True
        assert OOCFile("B", 8, pfs, real=False).real is False


class TestLayoutChunkHint:
    def test_blocked_layout_yields_block_volume(self):
        assert layout_chunk_elements(BlockedLayout((4, 8))) == 32

    def test_linear_layout_yields_none(self):
        assert layout_chunk_elements(LinearLayout(IMat.identity(2))) is None

    def test_hint_reaches_chunked_backend(self):
        pfs = ParallelFileSystem(PARAMS)
        b = ChunkedBackend()
        f = OOCFile("A", 64, pfs, backend=b, chunk_elements=16)
        assert f._bfile.chunk_elements == 16
        b.close()


class TestObsGauges:
    def test_measuring_backend_publishes_gauges(self):
        obs = Observability()
        with _make(_cfg(), backend="object", obs=obs) as ex:
            r = ex.run()
        m = r.backend_metrics
        g = obs.metrics.gauge
        assert g("backend.get_ops").value == m.get_ops
        assert g("backend.put_ops").value == m.put_ops
        assert g("backend.bytes_read").value == m.bytes_read
        assert g("backend.bytes_written").value == m.bytes_written
        assert g("backend.measured_io_s").value == m.wall_s
        assert g("backend.io_ratio").value == pytest.approx(
            m.wall_s / r.stats.io_time_s
        )

    def test_memory_backend_publishes_no_backend_gauges(self):
        obs = Observability()
        _make(_cfg(), obs=obs).run()
        assert "backend.get_ops" not in obs.metrics
