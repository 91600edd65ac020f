"""Executor integration: the tile cache must never change *results*,
only *I/O* — and with the cache disabled, not even that."""

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.engine import OOCExecutor, interpret_program
from repro.engine.executor import InterleavedStoreSpec
from repro.engine.interpreter import initial_arrays
from repro.ir import ProgramBuilder
from repro.runtime import MachineParams

SMALL = MachineParams(n_io_nodes=4, stripe_bytes=64, io_latency_s=0.01)


def matmul_program(n=6, weight=1):
    b = ProgramBuilder("mat", params=("N",), default_binding={"N": n})
    N = b.param("N")
    A, B, C = b.array("A", (N, N)), b.array("B", (N, N)), b.array("C", (N, N))
    with b.nest("mm", weight=weight) as nb:
        i, j, k = nb.loop("i", 1, N), nb.loop("j", 1, N), nb.loop("k", 1, N)
        nb.assign(C[i, j], C[i, j] + A[i, k] * B[k, j])
    return b.build()


def two_nest_program(n=6):
    """Cross-nest reuse: both nests sweep U and V."""
    b = ProgramBuilder("pair", params=("N",), default_binding={"N": n})
    N = b.param("N")
    U, V = b.array("U", (N, N)), b.array("V", (N, N))
    with b.nest("first") as nb:
        i, j = nb.loop("i", 1, N), nb.loop("j", 1, N)
        nb.assign(U[i, j], V[i, j] + 1.0)
    with b.nest("second") as nb:
        i, j = nb.loop("i", 1, N), nb.loop("j", 1, N)
        nb.assign(V[i, j], U[i, j] * 2.0)
    return b.build()


def stencil_program(n=8):
    """Consecutive tiles overlap by a one-row halo (partial coverage)."""
    b = ProgramBuilder("stencil", params=("N",), default_binding={"N": n})
    N = b.param("N")
    U, V = b.array("U", (N, N)), b.array("V", (N, N))
    with b.nest("sweep") as nb:
        i = nb.loop("i", 2, N)
        j = nb.loop("j", 1, N)
        nb.assign(U[i, j], V[i - 1, j] + V[i, j])
    return b.build()


def triangular_program(n=8):
    b = ProgramBuilder("tri", params=("N",), default_binding={"N": n})
    N = b.param("N")
    A, S = b.array("A", (N, N)), b.array("S", (N, N))
    with b.nest("tri") as nb:
        i = nb.loop("i", 1, N)
        j = nb.loop("j", 1, i)
        nb.assign(S[i, j], A[j, i] + A[i, j])
    return b.build()


ALL_PROGRAMS = [matmul_program, two_nest_program, stencil_program, triangular_program]


def run_pair(program, cache, *, real, memory_budget=40, **kw):
    init = initial_arrays(program, program.binding(None)) if real else None
    ex = OOCExecutor(
        program, params=SMALL, backend="memory" if real else "simulate",
        memory_budget=memory_budget, initial=init, cache=cache, **kw,
    )
    return ex, ex.run(), init


class TestDisabledIsIdentical:
    @pytest.mark.parametrize("make", ALL_PROGRAMS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("real", [False, True], ids=["sim", "real"])
    def test_stats_identical(self, make, real):
        # "off" is cache=None, which is also what leaving the keyword
        # out means
        p = make()
        init = initial_arrays(p, p.binding(None)) if real else None
        none_res = OOCExecutor(
            p, params=SMALL, backend="memory" if real else "simulate",
            memory_budget=40, initial=init,
        ).run()
        _, off_res, _ = run_pair(p, None, real=real)
        assert none_res.stats == off_res.stats
        assert none_res.peak_memory == off_res.peak_memory
        assert off_res.cache_metrics is None
        assert off_res.stats.cache is None


class TestNumericalIdentity:
    @pytest.mark.parametrize("make", ALL_PROGRAMS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("write_mode", ["write-back", "write-through"])
    @pytest.mark.parametrize("policy", ["lru", "lfu", "cost"])
    def test_matches_interpreter(self, make, write_mode, policy):
        p = make()
        cfg = CacheConfig(policy=policy, write_mode=write_mode, prefetch=True)
        ex, _, init = run_pair(p, cfg, real=True)
        expect = interpret_program(p, initial=init)
        for a in p.arrays:
            np.testing.assert_allclose(
                ex.array_data(a.name), expect[a.name], err_msg=a.name
            )

    def test_weight_repetitions(self):
        p = matmul_program(5, weight=3)
        cfg = CacheConfig(prefetch=True)
        ex, _, init = run_pair(p, cfg, real=True, memory_budget=60)
        expect = interpret_program(p, initial=init)
        np.testing.assert_allclose(ex.array_data("C"), expect["C"])

    def test_interleaved_store(self):
        p = two_nest_program(6)
        spec = {
            "U": InterleavedStoreSpec("g", (2, 2)),
            "V": InterleavedStoreSpec("g", (2, 2)),
        }
        cfg = CacheConfig(budget_fraction=0.4)
        ex, _, init = run_pair(
            p, cfg, real=True, memory_budget=40, storage_spec=spec
        )
        expect = interpret_program(p, initial=init)
        np.testing.assert_allclose(ex.array_data("U"), expect["U"])
        np.testing.assert_allclose(ex.array_data("V"), expect["V"])


class TestAccountingInvariants:
    @pytest.mark.parametrize("make", ALL_PROGRAMS, ids=lambda f: f.__name__)
    def test_sim_matches_real_io(self, make):
        """Simulated accounting must equal real-mode accounting with the
        cache live (hits, partial reads, prefetch and all)."""
        p = make()
        cfg = CacheConfig(prefetch=True)
        _, sim, _ = run_pair(p, cfg, real=False)
        _, real, _ = run_pair(p, cfg, real=True)
        assert sim.stats.read_calls == real.stats.read_calls
        assert sim.stats.write_calls == real.stats.write_calls
        assert sim.stats.elements_read == real.stats.elements_read
        assert sim.stats.elements_written == real.stats.elements_written
        sm, rm = sim.cache_metrics, real.cache_metrics
        assert (sm.hits, sm.misses, sm.partial_hits) == (
            rm.hits, rm.misses, rm.partial_hits
        )
        assert sm.evictions == rm.evictions

    @pytest.mark.parametrize("make", ALL_PROGRAMS, ids=lambda f: f.__name__)
    def test_peak_memory_within_budget(self, make):
        """Resident cache tiles + in-flight compute tiles must respect
        the per-node budget (modulo the planner's boundary-tile slack,
        which is counted in over_budget_tiles)."""
        p = make()
        _, res, _ = run_pair(p, CacheConfig(), real=False)
        if res.over_budget_tiles == 0:
            assert res.peak_memory <= 40

    def test_stencil_partial_hits(self):
        """The halo of a row sweep is served from the previous tile."""
        _, res, _ = run_pair(
            stencil_program(12), CacheConfig(budget_elements=72),
            real=False, memory_budget=108,
        )
        m = res.cache_metrics
        assert m.partial_hits > 0
        assert m.elements_saved > 0

    def test_cross_nest_reuse(self):
        """Nest 2 re-reads what nest 1 left resident."""
        p = two_nest_program(6)
        _, small, _ = run_pair(p, CacheConfig(budget_elements=8), real=False)
        _, big, _ = run_pair(p, CacheConfig(budget_elements=72), real=False,
                             memory_budget=112)
        assert big.stats.read_calls < small.stats.read_calls
        assert big.cache_metrics.hits > 0

    def test_savings_priced_like_real_reads(self):
        """Adding cache on top of the same plan can only remove reads."""
        p = two_nest_program(6)
        M = 40
        _, off, _ = run_pair(p, None, real=False, memory_budget=M)
        cfg = CacheConfig(budget_elements=M)
        _, on, _ = run_pair(p, cfg, real=False, memory_budget=2 * M)
        assert on.stats.read_calls <= off.stats.read_calls
        assert on.stats.elements_read <= off.stats.elements_read

    def test_prefetch_counters_and_overlap(self):
        p = matmul_program(6)
        cfg = CacheConfig(prefetch=True, prefetch_depth=2)
        _, res, _ = run_pair(p, cfg, real=True)
        m = res.cache_metrics
        assert m.prefetch_issued > 0
        assert 0 <= m.prefetch_used <= m.prefetch_issued
        assert res.overlapped_time_s <= res.serial_time_s
        assert m.overlapped_io_s + m.exposed_prefetch_io_s == pytest.approx(
            m.prefetch_io_s
        )

    def test_cache_metrics_surface_in_stats(self):
        _, res, _ = run_pair(matmul_program(5), CacheConfig(), real=False)
        assert res.stats.cache is res.cache_metrics
        assert "cache[" in str(res.stats)

    def test_cache_budget_must_leave_compute_room(self):
        p = matmul_program(5)
        with pytest.raises(ValueError, match="leave memory"):
            OOCExecutor(
                p, params=SMALL, backend="simulate", memory_budget=40,
                cache=CacheConfig(budget_elements=40),
            )
