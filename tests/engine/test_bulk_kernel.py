"""The bulk kernel against the scalar ``run_element_loops``, kept as the
oracle: generated nests tile by tile, and every workload through the
executor with ``vectorize`` on and off — bit for bit both times."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from repro.dependence import analyze_nest
from repro.engine import OOCExecutor
from repro.engine.interpreter import (
    BulkKernel, bulk_levels, initial_arrays, run_element_loops,
    run_element_loops_vectorized,
)
from repro.engine.plan import NestPlan, TileSpace
from repro.ir.affine import AffineExpr
from repro.ir.arrays import ArrayDecl, ArrayRef
from repro.ir.expr import BinOp, Call, Const, Ref, UnOp
from repro.ir.statements import Statement
from repro.optimizer import build_version
from repro.runtime import MachineParams
from repro.workloads import (
    analytics_names, build_analytics, build_workload, workload_names,
)

from .test_tile_space import planned_nests

ARRAYS = ("A", "B", "C")


@st.composite
def subscript(draw, loop_vars):
    """An affine subscript over the loop variables (1..N each), shifted
    to start at 0 or 1: a plain variable most of the time, sometimes
    negated (``N - i``), coupled (``i + j``, ``N + i - j``) or constant.
    ``N`` stays symbolic, so the analyzer sees the same subscript the
    run does."""
    kind = draw(st.sampled_from(("var", "var", "var", "neg", "sum", "const")))
    picks = draw(st.permutations(loop_vars))
    coeffs = {
        "var": {picks[0]: 1},
        "neg": {picks[0]: -1},
        "sum": {picks[0]: 1, picks[1]: draw(st.sampled_from((1, -1)))},
        "const": {},
    }[kind]
    below = sum(1 for c in coeffs.values() if c < 0)
    above = sum(1 for c in coeffs.values() if c > 0)
    return AffineExpr.make(
        {**coeffs, "N": below}, draw(st.integers(0, 1)) - above
    )


@st.composite
def statement(draw, decls, loop_vars):
    def ref(name):
        decl = decls[name]
        return ArrayRef(
            decl, tuple(draw(subscript(loop_vars)) for _ in range(decl.rank))
        )

    lhs = ref(draw(st.sampled_from(ARRAYS)))
    # the lhs's own array on the right makes recurrences, reductions and
    # in-place transposes; an earlier statement's makes same-iteration
    # flow through the body
    operands = [
        Ref(lhs if draw(st.integers(0, 3)) == 0 else ref(name))
        for name in draw(st.lists(st.sampled_from(ARRAYS), min_size=1, max_size=3))
    ]
    rhs = operands[0]
    for operand in operands[1:]:
        rhs = BinOp(draw(st.sampled_from("+-*")), rhs, operand)
    wrap = draw(st.sampled_from(("none", "none", "sqrt", "abs", "neg", "scale")))
    if wrap in ("sqrt", "abs"):
        rhs = Call(wrap, rhs)
    elif wrap == "neg":
        rhs = UnOp("-", rhs)
    elif wrap == "scale":
        rhs = BinOp("/", BinOp("+", rhs, Const(1.5)), Const(3.0))
    return Statement(lhs, rhs)


@st.composite
def bodied_plans(draw):
    """A planned nest of ``test_tile_space`` (rectangular, triangular and
    banded bounds; any tiling) around a generated 1-3 statement body."""
    plan, binding, _ = draw(planned_nests())
    extent = AffineExpr.make({"N": 2}, 2)  # a subscript is <= 2(N-1) + 1
    decls = {
        name: ArrayDecl.make(name, (extent,) * rank)
        for name, rank in zip(ARRAYS, (2, 2, 1))
    }
    body = draw(
        st.lists(statement(decls, plan.nest.loop_vars), min_size=1, max_size=3)
    )
    nest = plan.nest.with_body(body)
    shapes = {name: d.shape(binding) for name, d in decls.items()}
    return NestPlan(nest, plan.spec, plan.tile_size, 0), binding, shapes


# edges that hold for every N leave about two generated nests in three
# without a bulk level; those are filtered out, not counted, so the 300
# examples are 300 kernels compared with the scalar loops
@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(bodied_plans(), st.integers(0, 2**16))
def test_bulk_kernel_equals_scalar_loops_tile_by_tile(planned, seed):
    plan, binding, shapes = planned
    nest = plan.nest
    # the analyzer's own edges, which hold for every N: dependences that
    # exist for some N only (B(N - i) against B(i) meet when N is even)
    # are kept at every binding the test draws
    edges = analyze_nest(nest)
    kernel = BulkKernel.compile(nest, binding, edges)
    assume(kernel is not None)
    assert kernel.bulk == bulk_levels(nest, edges)
    event(f"depth {nest.depth}, bulk {kernel.bulk}")
    rng = np.random.default_rng(seed)
    data = {name: rng.uniform(0.5, 1.5, shape) for name, shape in shapes.items()}
    for windows, _, fps in TileSpace(plan, binding, shapes):
        regions = {name: region for name, (region, _, _) in fps.items()}
        boxes = {
            name: tuple(slice(lo, hi + 1) for lo, hi in region)
            for name, region in regions.items()
        }
        scalar = {name: data[name][box].copy() for name, box in boxes.items()}
        bulk = {name: tile.copy() for name, tile in scalar.items()}
        want = run_element_loops(nest, binding, windows, scalar, regions)
        with np.errstate(all="ignore"):
            got = run_element_loops_vectorized(kernel, windows, bulk, regions)
        assert got == want
        for name, box in boxes.items():
            np.testing.assert_array_equal(bulk[name], scalar[name], err_msg=name)
            data[name][box] = scalar[name]


def test_bulk_kernel_rejects_a_strided_tile():
    nest = build_workload("trans", 4).nests[0]
    kernel = BulkKernel.compile(nest, {"N": 4})
    regions = {name: ((0, 3), (0, 3)) for name in nest.arrays()}
    tiles = {name: np.asfortranarray(np.ones((4, 4))) for name in regions}
    with pytest.raises(ValueError, match="C-contiguous"):
        run_element_loops_vectorized(kernel, {}, tiles, regions)


SMALL = MachineParams(n_io_nodes=2, stripe_bytes=128, io_latency_s=0.001)


@pytest.mark.parametrize("version", ("col", "c-opt", "h-opt"))
@pytest.mark.parametrize("workload", workload_names() + analytics_names())
def test_workloads_bit_for_bit_through_the_executor(workload, version):
    build = build_workload if workload in workload_names() else build_analytics
    cfg = build_version(version, build(workload, 6), params=SMALL)
    init = initial_arrays(cfg.program, cfg.program.binding())
    out = {}
    for vectorize in (False, True):
        ex = OOCExecutor(
            cfg.program, cfg.layouts, params=SMALL, backend="memory",
            memory_budget=600, tiling=cfg.tiling, storage_spec=cfg.storage_spec,
            initial=init, vectorize=vectorize, edges=cfg.edges,
        )
        result = ex.run()
        out[vectorize] = result.stats, {
            a.name: ex.array_data(a.name) for a in cfg.program.arrays
        }
    assert out[True][0] == out[False][0]
    for name, want in out[False][1].items():
        np.testing.assert_array_equal(out[True][1][name], want, err_msg=name)
