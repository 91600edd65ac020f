import numpy as np
import pytest

from repro.engine import OOCExecutor, generate_tiled_code, interpret_program
from repro.engine.executor import InterleavedStoreSpec, LinearStoreSpec
from repro.engine.interpreter import initial_arrays
from repro.ir import ProgramBuilder
from repro.layout import col_major, row_major
from repro.runtime import MachineParams
from repro.transforms import no_tiling, ooc_tiling, traditional_tiling


def motivating_program(n=6):
    """The paper's Section 3.1 two-nest fragment."""
    b = ProgramBuilder("motivating", params=("N",), default_binding={"N": n})
    N = b.param("N")
    U = b.array("U", (N, N))
    V = b.array("V", (N, N))
    W = b.array("W", (N, N))
    with b.nest("nest1") as nb:
        i = nb.loop("i", 1, N)
        j = nb.loop("j", 1, N)
        nb.assign(U[i, j], V[j, i] + 1.0)
    with b.nest("nest2") as nb:
        i = nb.loop("i", 1, N)
        j = nb.loop("j", 1, N)
        nb.assign(V[i, j], W[j, i] + 2.0)
    return b.build()


def matmul_program(n=6, weight=1):
    b = ProgramBuilder("mat", params=("N",), default_binding={"N": n})
    N = b.param("N")
    A = b.array("A", (N, N))
    B = b.array("B", (N, N))
    C = b.array("C", (N, N))
    with b.nest("mm", weight=weight) as nb:
        i = nb.loop("i", 1, N)
        j = nb.loop("j", 1, N)
        k = nb.loop("k", 1, N)
        nb.assign(C[i, j], C[i, j] + A[i, k] * B[k, j])
    return b.build()


SMALL = MachineParams(n_io_nodes=4, stripe_bytes=64, io_latency_s=0.01)


class TestInterpreter:
    def test_matmul_matches_numpy(self):
        p = matmul_program(5)
        init = initial_arrays(p, {"N": 5})
        out = interpret_program(p, initial=init)
        a, b_, c = init["A"], init["B"], init["C"]
        expect = c + a @ b_
        np.testing.assert_allclose(out["C"], expect)

    def test_weight_repeats_nest(self):
        p = matmul_program(4, weight=2)
        init = initial_arrays(p, {"N": 4})
        once = interpret_program(matmul_program(4, weight=1), initial=init)
        twice = interpret_program(p, initial=init)
        again = once["C"] + init["A"] @ init["B"]
        np.testing.assert_allclose(twice["C"], again)

    def test_sequential_nests_flow(self):
        p = motivating_program(4)
        init = initial_arrays(p, {"N": 4})
        out = interpret_program(p, initial=init)
        # nest1 reads the ORIGINAL V; nest2 then overwrites V
        np.testing.assert_allclose(out["U"], init["V"].T + 1.0)
        np.testing.assert_allclose(out["V"], init["W"].T + 2.0)


class TestOOCExecutorSemantics:
    """Transformations must not change results: out-of-core execution,
    any layouts, any tiling — always the same arrays as the in-core
    reference interpreter."""

    @pytest.mark.parametrize("tiling", [ooc_tiling, traditional_tiling, no_tiling])
    def test_motivating_all_tilings(self, tiling):
        p = motivating_program(5)
        init = initial_arrays(p, {"N": 5})
        expect = interpret_program(p, initial=init)
        ex = OOCExecutor(
            p, params=SMALL, backend="memory", tiling=tiling,
            memory_budget=30, initial=init,
        )
        ex.run()
        for name in ("U", "V", "W"):
            np.testing.assert_allclose(ex.array_data(name), expect[name])

    @pytest.mark.parametrize(
        "layouts",
        [
            {},
            {"U": row_major(2), "V": col_major(2), "W": row_major(2)},
            {"U": col_major(2), "V": col_major(2), "W": col_major(2)},
        ],
        ids=["default", "paper-optimal", "all-col"],
    )
    def test_layout_independence(self, layouts):
        p = motivating_program(5)
        init = initial_arrays(p, {"N": 5})
        expect = interpret_program(p, initial=init)
        ex = OOCExecutor(
            p, layouts, params=SMALL, backend="memory", memory_budget=40, initial=init
        )
        ex.run()
        for name in ("U", "V", "W"):
            np.testing.assert_allclose(ex.array_data(name), expect[name])

    def test_matmul_with_reduction_and_weight(self):
        p = matmul_program(4, weight=2)
        init = initial_arrays(p, {"N": 4})
        expect = interpret_program(p, initial=init)
        ex = OOCExecutor(
            p, params=SMALL, backend="memory", memory_budget=50, initial=init
        )
        ex.run()
        np.testing.assert_allclose(ex.array_data("C"), expect["C"])

    def test_interleaved_storage_same_results(self):
        p = motivating_program(4)
        init = initial_arrays(p, {"N": 4})
        expect = interpret_program(p, initial=init)
        spec = {
            "U": InterleavedStoreSpec("g", (5, 5)),
            "V": InterleavedStoreSpec("g", (5, 5)),
            "W": LinearStoreSpec(row_major(2)),
        }
        ex = OOCExecutor(
            p, params=SMALL, backend="memory", memory_budget=80,
            storage_spec=spec, initial=init,
        )
        ex.run()
        for name in ("U", "V", "W"):
            np.testing.assert_allclose(ex.array_data(name), expect[name])

    def test_triangular_nest(self):
        b = ProgramBuilder("tri", params=("N",), default_binding={"N": 6})
        N = b.param("N")
        A = b.array("A", (N, N))
        B2 = b.array("B", (N, N))
        with b.nest("t") as nb:
            i = nb.loop("i", 1, N)
            j = nb.loop("j", i, N)
            nb.assign(A[i, j], B2[j, i] + 1.0)
        p = b.build()
        init = initial_arrays(p, {"N": 6})
        expect = interpret_program(p, initial=init)
        ex = OOCExecutor(
            p, params=SMALL, backend="memory", memory_budget=30, initial=init
        )
        ex.run()
        np.testing.assert_allclose(ex.array_data("A"), expect["A"])

    def test_guarded_statements(self):
        from repro.ir import Condition, IndexVar

        b = ProgramBuilder("g", params=("N",), default_binding={"N": 5})
        N = b.param("N")
        X = b.array("X", (N,))
        Y = b.array("Y", (N, N))
        with b.nest("n") as nb:
            i = nb.loop("i", 1, N)
            j = nb.loop("j", 1, N)
            nb.assign(X[i], 0.0, guards=[Condition.eq(IndexVar("j"), 1)])
            nb.assign(Y[i, j], X[i] + 1.0)
        p = b.build()
        init = initial_arrays(p, {"N": 5})
        expect = interpret_program(p, initial=init)
        ex = OOCExecutor(
            p, params=SMALL, backend="memory", memory_budget=30, initial=init
        )
        ex.run()
        np.testing.assert_allclose(ex.array_data("Y"), expect["Y"])
        np.testing.assert_allclose(ex.array_data("X"), expect["X"])


class TestOOCExecutorAccounting:
    def test_simulate_matches_real_io_counts(self):
        p = motivating_program(6)
        kw = dict(params=SMALL, memory_budget=40)
        real = OOCExecutor(p, backend="memory", **kw).run()
        sim = OOCExecutor(p, backend="simulate", **kw).run()
        assert real.stats.read_calls == sim.stats.read_calls
        assert real.stats.write_calls == sim.stats.write_calls
        assert real.stats.elements_moved == sim.stats.elements_moved
        assert real.stats.io_time_s == pytest.approx(sim.stats.io_time_s)

    def test_memory_budget_respected(self):
        p = motivating_program(8)
        ex = OOCExecutor(p, params=SMALL, backend="simulate", memory_budget=40)
        res = ex.run()
        assert res.peak_memory <= 40

    def test_weight_scales_stats(self):
        p1 = matmul_program(6, weight=1)
        p3 = matmul_program(6, weight=3)
        kw = dict(params=SMALL, backend="simulate", memory_budget=60)
        s1 = OOCExecutor(p1, **kw).run().stats
        s3 = OOCExecutor(p3, **kw).run().stats
        assert s3.read_calls == 3 * s1.read_calls
        assert s3.io_time_s == pytest.approx(3 * s1.io_time_s)

    def test_combined_optimization_fewer_calls(self):
        """The paper's worked optimization of the motivating fragment —
        U row-major, V column-major, W row-major, nest2 interchanged —
        needs far fewer I/O calls than the unoptimized all-column-major
        program."""
        from repro.linalg import IMat
        from repro.transforms import apply_loop_transform

        p = motivating_program(16)
        interchanged = apply_loop_transform(
            p.nests[1], IMat([[0, 1], [1, 0]])
        )
        optimized = p.with_nests([p.nests[0], interchanged])
        kw = dict(params=SMALL, backend="simulate", memory_budget=80)
        good = OOCExecutor(
            optimized,
            {"U": row_major(2), "V": col_major(2), "W": row_major(2)},
            **kw,
        ).run()
        bad = OOCExecutor(
            p,
            {"U": col_major(2), "V": col_major(2), "W": col_major(2)},
            **kw,
        ).run()
        assert good.stats.calls < bad.stats.calls

    def test_combined_optimization_preserves_semantics(self):
        from repro.linalg import IMat
        from repro.transforms import apply_loop_transform

        p = motivating_program(5)
        init = initial_arrays(p, {"N": 5})
        expect = interpret_program(p, initial=init)
        interchanged = apply_loop_transform(p.nests[1], IMat([[0, 1], [1, 0]]))
        optimized = p.with_nests([p.nests[0], interchanged])
        ex = OOCExecutor(
            optimized,
            {"U": row_major(2), "V": col_major(2), "W": row_major(2)},
            params=SMALL, backend="memory", memory_budget=40, initial=init,
        )
        ex.run()
        for name in ("U", "V", "W"):
            np.testing.assert_allclose(ex.array_data(name), expect[name])

    def test_nest_runs_reported(self):
        p = motivating_program(6)
        res = OOCExecutor(p, params=SMALL, backend="simulate", memory_budget=40).run()
        assert [r.nest_name for r in res.nest_runs] == ["nest1", "nest2"]
        assert all(r.tiles_executed > 0 for r in res.nest_runs)
        assert res.serial_time_s > 0

    def test_array_data_unavailable_in_simulate(self):
        p = motivating_program(4)
        ex = OOCExecutor(p, params=SMALL, backend="simulate", memory_budget=40)
        with pytest.raises(RuntimeError):
            ex.array_data("U")

    def test_mixed_shape_interleaving_rejected(self):
        b = ProgramBuilder("t", params=("N",), default_binding={"N": 4})
        N = b.param("N")
        X = b.array("X", (N,))
        Y = b.array("Y", (N, N))
        with b.nest() as nb:
            i = nb.loop("i", 1, N)
            nb.assign(X[i], 1.0)
        with b.nest() as nb:
            i = nb.loop("i", 1, N)
            j = nb.loop("j", 1, N)
            nb.assign(Y[i, j], 1.0)
        p = b.build()
        with pytest.raises(ValueError):
            OOCExecutor(
                p,
                params=SMALL,
                storage_spec={
                    "X": InterleavedStoreSpec("g", (2,)),
                    "Y": InterleavedStoreSpec("g", (2, 2)),
                },
            )


class TestCodegen:
    def test_contains_tile_structure(self):
        p = motivating_program(6)
        text = generate_tiled_code(
            p, {"U": row_major(2), "V": col_major(2), "W": row_major(2)}
        )
        assert "passion_read_tiles" in text
        assert "passion_write_tiles" in text
        assert "do IT = " in text
        assert "file layout of V: linear layout g=column-major" in text

    def test_ooc_tiling_leaves_innermost_untiled(self):
        p = motivating_program(6)
        text = generate_tiled_code(p, {})
        # innermost j is not strip-mined: no JT loop
        assert "do JT" not in text
        assert "do IT" in text
