"""Edge behaviors of the executor and planner."""

import numpy as np
import pytest

from repro.engine import OOCExecutor
from repro.engine.executor import LinearStoreSpec
from repro.ir import ProgramBuilder
from repro.layout import diagonal, row_major
from repro.runtime import MachineParams

SMALL = MachineParams(n_io_nodes=2, stripe_bytes=128, io_latency_s=0.001)


def big_inner_program(n=12):
    """Untiled inner level spans too much data for the budget."""
    b = ProgramBuilder("big", params=("N",), default_binding={"N": n})
    N = b.param("N")
    A = b.array("A", (N, N))
    B2 = b.array("B", (N, N))
    with b.nest("n") as nb:
        i = nb.loop("i", 1, N)
        j = nb.loop("j", 1, N)
        nb.assign(A[i, j], B2[j, i] + 1.0)
    return b.build()


class TestBudgetEdges:
    def test_over_budget_plan_still_runs(self):
        # budget below one row of footprint: plan falls back, marks over
        p = big_inner_program()
        ex = OOCExecutor(p, params=SMALL, backend="simulate", memory_budget=70)
        res = ex.run()
        assert res.stats.calls > 0
        # peak above budget is recorded, not hidden
        assert res.peak_memory >= 0

    def test_over_budget_real_execution_correct(self):
        from repro.engine import interpret_program
        from repro.engine.interpreter import initial_arrays

        p = big_inner_program(8)
        init = initial_arrays(p, p.binding())
        expected = interpret_program(p, initial=init)
        ex = OOCExecutor(
            p, params=SMALL, backend="memory", memory_budget=70, initial=init
        )
        ex.run()
        np.testing.assert_allclose(ex.array_data("A"), expected["A"])

    def test_generous_budget_zero_overruns(self):
        p = big_inner_program(8)
        ex = OOCExecutor(p, params=SMALL, backend="simulate", memory_budget=10**6)
        res = ex.run()
        assert res.over_budget_tiles == 0
        assert res.peak_memory <= 10**6


class TestStorageSpecEdges:
    def test_explicit_linear_spec_overrides_layout(self):
        p = big_inner_program(8)
        ex = OOCExecutor(
            p,
            layouts={"A": row_major(2), "B": row_major(2)},
            storage_spec={"A": LinearStoreSpec(diagonal())},
            params=SMALL,
            backend="simulate",
            memory_budget=200,
        )
        # A uses the diagonal layout from the spec, B the layouts dict
        assert ex._stores["A"].arrays["A"].layout.hyperplane.g == (1, -1)
        assert ex._stores["B"].arrays["B"].layout.hyperplane.g == (1, 0)

    def test_default_layout_is_row_major(self):
        p = big_inner_program(8)
        ex = OOCExecutor(p, params=SMALL, backend="simulate", memory_budget=200)
        assert ex._stores["A"].arrays["A"].layout.hyperplane.g == (1, 0)


class TestTilingCallableOrMapping:
    def test_mapping_of_specs(self):
        from repro.transforms.tiling import TilingSpec

        p = big_inner_program(8)
        ex = OOCExecutor(
            p, params=SMALL, backend="simulate", memory_budget=10**6,
            tiling={"n": TilingSpec((True, True))},
        )
        res = ex.run()
        assert res.nest_runs[0].plan.spec.tiled == (True, True)

    def test_unknown_nest_in_mapping_raises(self):
        from repro.transforms.tiling import TilingSpec

        p = big_inner_program(8)
        # named, and at construction — not a bare KeyError mid-run
        with pytest.raises(ValueError, match="no spec for nest 'n'"):
            OOCExecutor(
                p, params=SMALL, backend="simulate", memory_budget=10**6,
                tiling={"other": TilingSpec((True, True))},
            )


class TestGlobalOptOrder:
    def test_program_order_supported(self):
        from repro.optimizer import optimize_program
        from repro.workloads import build_workload

        p = build_workload("gfunp", 10)
        d = optimize_program(p, nest_order="program")
        assert d.layouts  # still optimizes, just in textual order

    def test_bad_order_rejected(self):
        from repro.optimizer import optimize_program

        with pytest.raises(ValueError):
            optimize_program(big_inner_program(8), nest_order="random")


class TestTransposeEdges:
    def test_both_orientations_as_direction_patterns(self):
        from repro.dependence import Direction, analyze_nest

        b = ProgramBuilder("t", params=("N",), default_binding={"N": 20})
        N = b.param("N")
        A = b.array("A", (N, N))
        with b.nest() as nb:
            i = nb.loop("i", 1, N)
            j = nb.loop("j", 1, N)
            nb.assign(A[i, j], A[j, i] + 1.0)
        # the transpose meets itself at ~N^2 distances (d, -d): the write
        # first above the diagonal (flow), the read first below it
        # (anti), each one sign vector whatever N is
        edges = analyze_nest(b.build().nests[0])
        pattern = (Direction.LT, Direction.GT)
        assert {e.kind: e.directions for e in edges} == {
            "flow": {pattern}, "anti": {pattern},
        }
        assert all(e.distances == {(1, -1)} and not e.exact for e in edges)
