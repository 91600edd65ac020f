import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dependence import (
    DependenceEdge,
    Direction,
    analyze_nest,
    direction_of,
    lex_positive,
    transform_is_legal,
)
from repro.ir import ProgramBuilder
from repro.linalg import IMat


def build_nest(body_fn, params=("N",), default=6, depth_vars=("i", "j")):
    b = ProgramBuilder("t", params=params, default_binding={"N": default})
    N = b.param("N")
    arrays = {}

    def arr(name, rank=2):
        if name not in arrays:
            arrays[name] = b.array(name, (N,) * rank)
        return arrays[name]

    with b.nest("n") as n:
        idx = [n.loop(v, 1, N) for v in depth_vars]
        body_fn(n, arr, idx)
    return b.build().nests[0]


class TestVectors:
    def test_direction_of(self):
        assert direction_of((1, 0, -2)) == (
            Direction.LT,
            Direction.EQ,
            Direction.GT,
        )

    def test_lex_positive(self):
        assert lex_positive((0, 0))
        assert lex_positive((0, 1))
        assert not lex_positive((0, -1))
        assert lex_positive((1, -5))

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            DependenceEdge("A", 0, 0, "sideways", frozenset())

    def test_carried_at_level(self):
        e = DependenceEdge("A", 0, 0, "flow", frozenset({(0, 1), (1, 0)}))
        assert e.carried_at_level(0)
        assert e.carried_at_level(1)
        assert e.loop_carried


def flow_or_anti(nest):
    return [e for e in analyze_nest(nest) if e.kind != "output"]


class TestGcdTest:
    """What the GCD test disproved, the exact integer solve of the
    subscript equalities disproves inside ``analyze_nest``."""

    def test_different_arrays_independent(self):
        n = build_nest(lambda nb, arr, ix: nb.assign(arr("A")[ix[0], ix[1]], arr("B")[ix[0], ix[1]]))
        assert analyze_nest(n) == []

    def test_stride2_vs_odd_independent(self):
        # A(2i) vs A(2i+1): gcd 2 does not divide 1
        n = build_nest(
            lambda nb, arr, ix: nb.assign(
                arr("A")[2 * ix[0], ix[1]], arr("A")[2 * ix[0] + 1, ix[1]]
            )
        )
        assert analyze_nest(n) == []

    def test_same_ref_not_proven_independent(self):
        n = build_nest(
            lambda nb, arr, ix: nb.assign(
                arr("A")[ix[0], ix[1]], arr("A")[ix[0] - 1, ix[1]]
            )
        )
        (edge,) = analyze_nest(n)
        assert edge.kind == "flow" and edge.distances == {(1, 0)}

    def test_distinct_constant_subscripts(self):
        n = build_nest(
            lambda nb, arr, ix: nb.assign(arr("A")[1, ix[1]], arr("A")[2, ix[1]])
        )
        assert flow_or_anti(n) == []
        # the write itself repeats along i: an output dependence remains
        assert [e.kind for e in analyze_nest(n)] == ["output"]

    def test_mismatched_param_coefficient_conservative(self):
        # A(i + N) vs A(i): N is an unknown of the solve, not cancelled;
        # within 1 <= i, i' <= N the two never meet, for any N
        n = build_nest(
            lambda nb, arr, ix: nb.assign(
                arr("A")[ix[0] + IndexN(), ix[1]], arr("A")[ix[0], ix[1]]
            )
        )
        assert analyze_nest(n) == []
        # A(i + N - 2) vs A(i) meet (i' = i + N - 2) once N >= 3
        n = build_nest(
            lambda nb, arr, ix: nb.assign(
                arr("A")[ix[0] + IndexN() - 2, ix[1]], arr("A")[ix[0], ix[1]]
            )
        )
        (edge,) = analyze_nest(n)
        assert edge.kind == "flow" and not edge.exact
        assert edge.directions == {(Direction.LT, Direction.EQ)}


def IndexN():
    from repro.ir import IndexVar

    return IndexVar("N")


class TestBanerjee:
    """What the bounds test disproved, the loop bounds on the solution
    lattice disprove, for every value of the parameters."""

    def test_disjoint_halves_independent(self):
        # write A(i), read A(i + N): ranges [1,N] vs [N+1, 2N] never meet
        b = ProgramBuilder("t", params=("N",), default_binding={"N": 6})
        N = b.param("N")
        A = b.array("A", (3 * N,))
        with b.nest("n") as nb:
            i = nb.loop("i", 1, N)
            nb.assign(A[i], A[i + N])
        assert analyze_nest(b.build().nests[0]) == []

    def test_overlapping_not_independent(self):
        nest = build_nest(
            lambda nb, arr, ix: nb.assign(
                arr("A")[ix[0], ix[1]], arr("A")[ix[0] - 1, ix[1]]
            )
        )
        assert flow_or_anti(nest)

    def test_triangular_nest_handled(self):
        # the transpose read meets the write across the diagonal of the
        # square, but within the triangle j >= i only on the diagonal
        # itself, the same statement instance: no dependence
        def transpose(lower):
            b = ProgramBuilder("t", params=("N",), default_binding={"N": 6})
            N = b.param("N")
            A = b.array("A", (N, N))
            with b.nest("n") as nb:
                i = nb.loop("i", 1, N)
                j = nb.loop("j", lower(i), N)
                nb.assign(A[i, j], A[j, i] + 1.0)
            return b.build().nests[0]

        assert analyze_nest(transpose(lambda i: i)) == []
        assert flow_or_anti(transpose(lambda i: 1))


class TestAnalyzeNest:
    def test_no_deps_in_embarrassingly_parallel(self):
        nest = build_nest(
            lambda nb, arr, ix: nb.assign(arr("A")[ix[0], ix[1]], arr("B")[ix[0], ix[1]])
        )
        assert analyze_nest(nest) == []

    def test_uniform_flow_dependence(self):
        # A(i,j) = A(i-1,j): flow dep, distance (1, 0), exact
        nest = build_nest(
            lambda nb, arr, ix: nb.assign(
                arr("A")[ix[0], ix[1]], arr("A")[ix[0] - 1, ix[1]] + 1.0
            )
        )
        edges = analyze_nest(nest)
        flows = [e for e in edges if e.kind == "flow"]
        assert len(flows) == 1
        assert flows[0].distances == frozenset({(1, 0)})
        assert flows[0].exact

    def test_anti_dependence(self):
        # A(i,j) = A(i+1,j): read of i+1 happens before write at i+1 => anti, dist (1,0)
        nest = build_nest(
            lambda nb, arr, ix: nb.assign(
                arr("A")[ix[0], ix[1]], arr("A")[ix[0] + 1, ix[1]] + 1.0
            )
        )
        edges = analyze_nest(nest)
        assert {e.kind for e in edges} == {"anti"}
        assert edges[0].distances == frozenset({(1, 0)})

    def test_output_dependence(self):
        # A(i, 1) written by every j iteration: output dep carried by j
        nest = build_nest(
            lambda nb, arr, ix: nb.assign(arr("A")[ix[0], 1], arr("B")[ix[0], ix[1]])
        )
        outs = [e for e in edges_of_kind(nest, "output")]
        assert outs
        assert all(d[0] == 0 and d[1] > 0 for e in outs for d in e.distances)

    def test_transpose_non_uniform(self):
        # A(i,j) = A(j,i): non-uniform, symmetric distances (d, -d)
        nest = build_nest(
            lambda nb, arr, ix: nb.assign(
                arr("A")[ix[0], ix[1]], arr("A")[ix[1], ix[0]] + 1.0
            )
        )
        edges = analyze_nest(nest)
        assert edges
        for e in edges:
            assert not e.exact
            for d in e.distances:
                assert d[0] == -d[1]

    def test_statement_order_dependence(self):
        # S0 writes A(i,j); S1 reads A(i,j): loop-independent flow S0->S1
        def body(nb, arr, ix):
            nb.assign(arr("A")[ix[0], ix[1]], 1.0)
            nb.assign(arr("B")[ix[0], ix[1]], arr("A")[ix[0], ix[1]])

        nest = build_nest(body)
        flows = edges_of_kind(nest, "flow")
        assert any(
            e.src_stmt == 0 and e.dst_stmt == 1 and (0, 0) in e.distances
            for e in flows
        )

    def test_guard_limits_dependences(self):
        from repro.ir import Condition, IndexVar

        def body(nb, arr, ix):
            nb.assign(
                arr("A")[ix[0], 1],
                arr("A")[ix[0], 1] + 1.0,
                guards=[Condition.eq(IndexVar("j"), 1)],
            )

        nest = build_nest(body)
        edges = analyze_nest(nest)
        # only executes at j == 1, so no j-carried dependence
        for e in edges:
            for d in e.distances:
                assert d[1] == 0


def edges_of_kind(nest, kind):
    return [e for e in analyze_nest(nest) if e.kind == kind]


class TestLegality:
    def _stencil_edges(self):
        nest = build_nest(
            lambda nb, arr, ix: nb.assign(
                arr("A")[ix[0], ix[1]], arr("A")[ix[0] - 1, ix[1] + 1] + 1.0
            )
        )
        return analyze_nest(nest)

    def test_identity_always_legal(self):
        assert transform_is_legal(IMat.identity(2), self._stencil_edges())

    def test_interchange_illegal_for_skewed_stencil(self):
        # distance (1, -1): interchange maps it to (-1, 1) — illegal
        t = IMat([[0, 1], [1, 0]])
        assert not transform_is_legal(t, self._stencil_edges())

    def test_interchange_legal_for_plain_stencil(self):
        nest = build_nest(
            lambda nb, arr, ix: nb.assign(
                arr("A")[ix[0], ix[1]], arr("A")[ix[0] - 1, ix[1]] + 1.0
            )
        )
        edges = analyze_nest(nest)
        assert transform_is_legal(IMat([[0, 1], [1, 0]]), edges)

    def test_reversal_illegal_when_carried(self):
        nest = build_nest(
            lambda nb, arr, ix: nb.assign(
                arr("A")[ix[0], ix[1]], arr("A")[ix[0] - 1, ix[1]] + 1.0
            )
        )
        edges = analyze_nest(nest)
        t = IMat([[-1, 0], [0, 1]])
        assert not transform_is_legal(t, edges)

    def test_skew_legalizes_interchange(self):
        # distance (1,-1) under T = [[1,0],[1,1]] becomes (1, 0): legal
        t = IMat([[1, 0], [1, 1]])
        assert transform_is_legal(t, self._stencil_edges())

    def test_direction_pattern_conservatism(self):
        # non-exact edge with pattern (<, >): T = identity is fine,
        # but a transform whose first row could zero it out is rejected
        e = DependenceEdge("A", 0, 0, "flow", frozenset({(1, -1), (2, -2)}))
        assert transform_is_legal(IMat.identity(2), e.distances and [e])
        t = IMat([[1, 1], [0, 1]])  # first row of T·d = d1 + d2 = 0 possible
        assert not transform_is_legal(t, [e])

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(
            [
                [[1, 0], [0, 1]],
                [[0, 1], [1, 0]],
                [[1, 1], [0, 1]],
                [[1, 0], [1, 1]],
                [[1, -1], [0, 1]],
                [[-1, 0], [0, 1]],
            ]
        )
    )
    def test_legal_transform_preserves_execution_order_property(self, rows):
        """If transform_is_legal says yes, every stored distance maps to a
        lexicographically positive vector."""
        t = IMat(rows)
        edges = self._stencil_edges()
        if transform_is_legal(t, edges):
            for e in edges:
                for d in e.distances:
                    assert lex_positive(t.matvec(d))
