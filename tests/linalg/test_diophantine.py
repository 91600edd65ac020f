from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    IMat,
    has_integer_solution,
    solve_diophantine,
)


def matrices_and_vectors(max_dim=3, v=6):
    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(
        lambda mn: st.tuples(
            st.lists(
                st.lists(st.integers(-v, v), min_size=mn[1], max_size=mn[1]),
                min_size=mn[0],
                max_size=mn[0],
            ).map(IMat),
            st.lists(st.integers(-v, v), min_size=mn[1], max_size=mn[1]),
        )
    )


class TestSolveDiophantine:
    def test_simple_solvable(self):
        sol = solve_diophantine(IMat([[2, 3]]), [7])
        assert sol is not None
        x = sol.particular
        assert 2 * x[0] + 3 * x[1] == 7

    def test_simple_unsolvable(self):
        assert solve_diophantine(IMat([[2, 4]]), [7]) is None

    def test_coupled_system_unsolvable(self):
        # x + y = 0 and x + y = 1 simultaneously: per-row gcd passes,
        # the coupled system does not
        a = IMat([[1, 1], [1, 1]])
        assert solve_diophantine(a, [0, 1]) is None

    def test_rhs_size_checked(self):
        with pytest.raises(ValueError):
            solve_diophantine(IMat([[1, 0]]), [1, 2])

    def test_kernel_dimension(self):
        sol = solve_diophantine(IMat([[1, 1, 1]]), [3])
        assert sol is not None
        assert len(sol.basis) == 2

    def test_sample_enumerates_solutions(self):
        a = IMat([[2, 3]])
        sol = solve_diophantine(a, [7])
        for coeffs in [(-2,), (0,), (5,)]:
            x = sol.sample(coeffs)
            assert a.matvec(x) == (7,)
        with pytest.raises(ValueError):
            sol.sample((1, 2))

    def test_full_rank_unique(self):
        sol = solve_diophantine(IMat([[1, 0], [0, 1]]), [4, -2])
        assert sol.particular == (4, -2)
        assert sol.basis == ()

    @settings(max_examples=80, deadline=None)
    @given(matrices_and_vectors())
    def test_solutions_verify(self, case):
        a, x_true = case
        b = list(a.matvec(x_true))
        sol = solve_diophantine(a, b)
        assert sol is not None  # constructed to be solvable
        assert list(a.matvec(sol.particular)) == b
        for vec in sol.basis:
            assert all(v == 0 for v in a.matvec(vec))

    @settings(max_examples=60, deadline=None)
    @given(matrices_and_vectors())
    def test_unsolvable_means_no_small_solution(self, case):
        a, _ = case
        b = [1] * a.nrows
        if has_integer_solution(a, b):
            return
        # brute force a window: no integer point solves the system
        rng = range(-6, 7)
        import itertools

        for x in itertools.product(rng, repeat=a.ncols):
            assert list(a.matvec(x)) != b


class TestDependenceIntegration:
    def test_coupled_disproof_stronger_than_gcd(self):
        """A(i+j, i+j+1) vs A(i'+j', i'+j'): each dimension alone is
        solvable, the coupled system (x = y and x = y + 1) is not."""
        from repro.dependence import meeting_directions
        from repro.ir import ArrayRef, ProgramBuilder

        b = ProgramBuilder("t", params=("N",), default_binding={"N": 6})
        N = b.param("N")
        A = b.array("A", (2 * N, 2 * N))
        with b.nest() as nb:
            i = nb.loop("i", 1, N)
            j = nb.loop("j", 1, N)
            nb.assign(A[i + j, i + j + 1], A[i + j, i + j] + 1.0)
        nest = b.build().nests[0]
        (stmt,) = nest.body
        (write,), (read,) = stmt.writes(), stmt.reads()
        assert meeting_directions((nest, stmt, write), (nest, stmt, read), 2) == set()
        for dim in range(2):
            one = [
                ArrayRef(
                    replace(r.array, dims=r.array.dims[:1]),
                    r.subscripts[dim : dim + 1],
                )
                for r in (write, read)
            ]
            assert meeting_directions((nest, stmt, one[0]), (nest, stmt, one[1]), 2)

    def test_analyzer_uses_it(self):
        from repro.dependence import analyze_nest
        from repro.ir import ProgramBuilder

        b = ProgramBuilder("t", params=("N",), default_binding={"N": 6})
        N = b.param("N")
        A = b.array("A", (2 * N, 2 * N))
        with b.nest() as nb:
            i = nb.loop("i", 1, N)
            j = nb.loop("j", 1, N)
            nb.assign(A[i + j, i + j + 1], A[i + j, i + j] + 1.0)
        edges = analyze_nest(b.build().nests[0])
        # the write/read pair is disproven by the coupled system; only the
        # genuine output dependence among write instances remains
        assert edges and all(e.kind == "output" for e in edges)

    def test_mismatched_params_conservative(self):
        """A(i + N) vs A(i) over 1 <= i <= 2N: the parameter is an unknown
        of the solve, and the pair meets (i' = i + N, later) for every N."""
        from repro.dependence import Direction, analyze_nest
        from repro.ir import ProgramBuilder

        b = ProgramBuilder("t", params=("N",), default_binding={"N": 6})
        N = b.param("N")
        A = b.array("A", (3 * N,))
        with b.nest() as nb:
            i = nb.loop("i", 1, 2 * N)
            nb.assign(A[i + N], A[i] + 1.0)
        (edge,) = analyze_nest(b.build().nests[0])
        assert edge.kind == "flow" and edge.directions == {(Direction.LT,)}
