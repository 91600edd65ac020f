"""The bulk-kernel execution path must agree exactly with the scalar
interpreter — and must leave sequential every level it cannot cover."""

import numpy as np
import pytest

from repro.dependence import analyze_nest
from repro.engine import OOCExecutor, interpret_program
from repro.engine.interpreter import bulk_levels, initial_arrays
from repro.ir import Condition, IndexVar, ProgramBuilder
from repro.runtime import MachineParams
from repro.workloads import (
    analytics_names, build_analytics, build_workload, workload_names,
)

SMALL = MachineParams(n_io_nodes=2, stripe_bytes=128, io_latency_s=0.001)


def program_of(body_fn, n=6, lo=2, inner_lo=None):
    b = ProgramBuilder("v", params=("N",), default_binding={"N": n})
    N = b.param("N")
    arrays = {}

    def arr(name, rank=2):
        if name not in arrays:
            arrays[name] = b.array(name, (N + 2,) * rank)
        return arrays[name]

    with b.nest("n") as nest:
        i = nest.loop("i", lo, N)
        j = nest.loop("j", lo if inner_lo is None else inner_lo(i), N)
        body_fn(nest, arr, i, j)
    return b.build()


def innermost_free(nest):
    """The parent's whole test, kept as the floor under ``bulk_levels``:
    no guards and nothing carried by the innermost level."""
    level = nest.depth - 1
    return not any(s.guards for s in nest.body) and not any(
        e.carried_at_level(level) for e in analyze_nest(nest)
    )


class TestVectorizability:
    def test_copy_is_vectorizable(self):
        p = program_of(lambda n, a, i, j: n.assign(a("X")[i, j], a("Y")[j, i] + 1.0))
        assert bulk_levels(p.nests[0]) == (0, 1)

    def test_innermost_recurrence_is_not(self):
        # ... but the outer level is: the nest keeps a fast path
        p = program_of(
            lambda n, a, i, j: n.assign(a("X")[i, j], a("X")[i, j - 1] + 1.0)
        )
        assert bulk_levels(p.nests[0]) == (0,)

    def test_outer_recurrence_is_vectorizable(self):
        p = program_of(
            lambda n, a, i, j: n.assign(a("X")[i, j], a("X")[i - 1, j] + 1.0)
        )
        assert bulk_levels(p.nests[0]) == (1,)

    def test_temporal_lhs_is_not(self):
        # X(i, 1) written by every j: output dependence carried by j
        p = program_of(
            lambda n, a, i, j: n.assign(a("X")[i, 1], a("Y")[i, j] + 1.0)
        )
        assert bulk_levels(p.nests[0]) == (0,)

    def test_guards_disable(self):
        p = program_of(
            lambda n, a, i, j: n.assign(
                a("X")[i, j], 1.0, guards=[Condition.eq(IndexVar("j"), 2)]
            )
        )
        assert bulk_levels(p.nests[0]) == ()

    def test_matmul_reduction_not_vectorizable(self):
        # C(i,j) += ... is carried by the reduction level alone, wherever
        # the loop order puts it
        mm = build_workload("mat", 6).nest("mat.mm")
        assert bulk_levels(mm) == (0, 1)
        jki = build_workload("mxm", 6).nest("mxm.jki")
        assert bulk_levels(jki) == (0, 2)

    def test_bounding_variable_is_never_bulk(self):
        # i bounds the triangular j loop: the box would not be a box
        p = program_of(
            lambda n, a, i, j: n.assign(a("X")[i, j], a("Y")[j, i] + 1.0),
            inner_lo=lambda i: i,
        )
        assert bulk_levels(p.nests[0]) == (1,)

    def test_given_edges_are_used(self):
        nest = program_of(
            lambda n, a, i, j: n.assign(a("X")[i, j], a("X")[i, j - 1] + 1.0)
        ).nests[0]
        assert bulk_levels(nest, analyze_nest(nest)) == bulk_levels(nest)
        assert bulk_levels(nest, []) == (0, 1)

    @pytest.mark.parametrize("workload", workload_names() + analytics_names())
    def test_no_nest_loses_its_fast_path(self, workload):
        build = build_workload if workload in workload_names() else build_analytics
        for nest in build(workload, 6).nests:
            if innermost_free(nest):
                assert nest.depth - 1 in bulk_levels(nest), nest.name


def _compare_paths(program, budget=3000):
    binding = program.binding()
    init = initial_arrays(program, binding)
    expected = interpret_program(program, initial=init)
    results = {}
    for vectorize in (False, True):
        ex = OOCExecutor(
            program, params=SMALL, backend="memory",
            memory_budget=budget, initial=init, vectorize=vectorize,
        )
        ex.run()
        results[vectorize] = {
            a.name: ex.array_data(a.name) for a in program.arrays
        }
    for a in program.arrays:
        np.testing.assert_allclose(results[True][a.name], expected[a.name])
        np.testing.assert_array_equal(
            results[True][a.name], results[False][a.name]
        )


class TestVectorizedEquivalence:
    def test_transpose_copy(self):
        _compare_paths(
            program_of(lambda n, a, i, j: n.assign(a("X")[i, j], a("Y")[j, i] * 2.0))
        )

    def test_outer_recurrence(self):
        _compare_paths(
            program_of(
                lambda n, a, i, j: n.assign(
                    a("X")[i, j], a("X")[i - 1, j + 1] + a("Y")[i, j]
                )
            )
        )

    def test_multi_statement(self):
        def body(n, a, i, j):
            n.assign(a("X")[i, j], a("Y")[j, i] + 1.0)
            n.assign(a("Z")[i, j], a("X")[i, j] * 0.5)

        _compare_paths(program_of(body))

    def test_intrinsics(self):
        from repro.ir.expr import Call

        def body(n, a, i, j):
            n.assign(a("X")[i, j], Call("sqrt", a("Y")[i, j] * 1.0))

        _compare_paths(program_of(body))

    @pytest.mark.parametrize("workload", workload_names())
    def test_workloads_both_paths_agree(self, workload):
        program = build_workload(workload, 5)
        _compare_paths(program, budget=4000)
