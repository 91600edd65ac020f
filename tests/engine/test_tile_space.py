"""``TileSpace`` is the one statement of how a planned nest is cut into
tiles: these properties are what the executor's walk, the planner's
probe, the autotune model and h-opt's chunk sizing all rely on."""

import math
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.autotune.model import nest_config_cost, plan_for
from repro.engine import nest_footprints, plan_nest
from repro.engine.plan import NestPlan, TileSpace, tile_box
from repro.ir import ProgramBuilder
from repro.ir.affine import AffineExpr
from repro.ir.loops import Bound, Loop
from repro.layout import row_major
from repro.runtime import MachineParams
from repro.runtime.ooc_array import region_size
from repro.transforms import TilingSpec, ooc_tiling

SHAPES = ("rect", "lower", "upper", "band")


def _nest(shape: str, n: int, depth: int):
    """A depth-2/3 nest over an n×n(×n) array whose second loop is
    rectangular, triangular (``j <= i`` / ``j >= i``) or coupled by two
    bounds per side (``max(1, i-2) <= j <= min(N, i+2)``)."""
    b = ProgramBuilder("t", params=("N",), default_binding={"N": n})
    N = b.param("N")
    A = b.array("A", (N,) * depth)
    with b.nest("n") as nb:
        i = nb.loop("i", 1, N)
        j = nb.loop(
            "j", i if shape == "upper" else 1, i if shape == "lower" else N
        )
        idx = (i, j) if depth == 2 else (i, j, nb.loop("k", 1, N))
        nb.assign(A[idx], A[idx] + 1.0)
    program = b.build()
    nest = program.nests[0]
    if shape == "band":
        band = Loop.from_bounds(
            "j",
            [Bound(AffineExpr.of(1)), Bound(AffineExpr.of(i - 2))],
            [Bound(AffineExpr.of(N)), Bound(AffineExpr.of(i + 2))],
        )
        nest = nest.with_loops([nest.loops[0], band, *nest.loops[2:]])
    binding = {"N": n}
    return nest, binding, {"A": (n,) * depth}


@st.composite
def planned_nests(draw, shapes=SHAPES):
    """(plan, binding, shapes): any spec that tiles something, any block."""
    depth = draw(st.integers(2, 3))
    nest, binding, shp = _nest(
        draw(st.sampled_from(shapes)), draw(st.integers(1, 9)), depth
    )
    tiled = draw(
        st.tuples(*[st.booleans()] * depth).filter(any)
        | st.just((False,) * depth)
    )
    block = draw(st.integers(1, 10)) if any(tiled) else 0
    return NestPlan(nest, TilingSpec(tiled), block, 0), binding, shp


def _in(point, windows):
    return all(lo <= point[v] <= hi for v, (lo, hi) in windows.items())


@settings(max_examples=150, deadline=None)
@given(planned_nests(), st.integers(1, 5))
def test_rank_tiles_partition_the_iteration_space(planned, n_nodes):
    plan, binding, shapes = planned
    spaces = [
        TileSpace(plan, binding, shapes, (rank, n_nodes))
        for rank in range(n_nodes)
    ]
    tiles = [windows for space in spaces for windows, _, _ in space]
    owners = Counter()
    for point in plan.nest.iterate(binding):
        hits = [t for t, windows in enumerate(tiles) if _in(point, windows)]
        assert len(hits) == 1, (point, hits)
        owners[hits[0]] += 1
    # iteration yields only tiles that hold an iteration point, and the
    # refined ranges cover every point the tile holds
    assert sorted(owners) == list(range(len(tiles)))
    for space in spaces:
        for windows, var_ranges, fps in space:
            assert fps and all(region_size(r) > 0 for r, _, _ in fps.values())
            for point in plan.nest.iterate(binding):
                if _in(point, windows):
                    assert _in(point, var_ranges)
    # one rank, no slice: the same walk as (0, 1)
    assert [t[0] for t in TileSpace(plan, binding, shapes)] == [
        t[0] for t in TileSpace(plan, binding, shapes, (0, 1))
    ]


@settings(max_examples=150, deadline=None)
@given(planned_nests(), st.integers(1, 5))
def test_len_is_the_window_product_not_the_yield_count(planned, n_nodes):
    plan, binding, shapes = planned
    for rank in range(n_nodes):
        space = TileSpace(plan, binding, shapes, (rank, n_nodes))
        n_windows = [len(starts) for starts, _ in space.windows.values()]
        assert list(space.windows) == [
            plan.nest.loops[level].var for level in plan.tiled_levels
        ]
        if plan.tiled_levels:
            assert len(space) == math.prod(n_windows)
        else:
            assert len(space) == (1 if rank == 0 else 0)  # rank 0 only
        for starts, stops in space.windows.values():
            assert starts.dtype.kind == stops.dtype.kind == "i"
            assert ((stops - starts) < space.block).all()
            assert (starts[1:] == stops[:-1] + 1).all()
        # iteration drops the windows that hold no iteration point
        assert len(list(space)) <= len(space)


def test_triangular_window_product_overcounts_the_walk():
    """The named term of ``autotune.pred_err``: ``j <= i`` tiled 2×2
    over 8×8 has 16 windows, 10 of which hold an iteration."""
    nest, binding, shapes = _nest("lower", 8, 2)
    space = TileSpace(
        NestPlan(nest, TilingSpec((True, True)), 2, 0), binding, shapes
    )
    assert len(space) == 16
    walked = [windows for windows, _, _ in space]
    assert len(walked) == 10
    assert all(w["j"][0] <= w["i"][1] for w in walked)
    # walk order: the product of the levels' windows, outermost slowest
    assert walked == sorted(walked, key=lambda w: (w["i"], w["j"]))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SHAPES), st.integers(2, 9), st.integers(2, 3),
    st.integers(1, 5), st.one_of(st.none(), st.integers(1, 6)),
    st.integers(8, 400),
)
def test_model_tile_count_is_the_plans(shape, n, depth, n_nodes, force, budget):
    nest, binding, shapes = _nest(shape, n, depth)
    plan = plan_for(nest, binding, shapes, budget, force)
    cost = nest_config_cost(
        plan, binding=binding, shapes=shapes, params=MachineParams(),
        layouts={"A": row_major(depth)}, n_nodes=n_nodes, cache_budget=0,
        cb_nodes=None,
        warm=False,
    )
    space = TileSpace(plan, binding, shapes, (0, n_nodes))
    assert cost.tile_size == plan.tile_size
    assert cost.n_tiles == len(space) == math.prod(
        len(starts) for starts, _ in space.windows.values()
    )
    # the closed form: ceil(E / (B·p)) on the slabbed outermost level,
    # ceil(E / B) on the others
    want = 1
    for idx, var in enumerate(space.windows):
        lo, hi = space.full[var]
        per_window = space.block * (n_nodes if idx == 0 else 1)
        want *= math.ceil((hi - lo + 1) / per_window)
    assert len(space) == want


@settings(max_examples=100, deadline=None)
@given(planned_nests(), st.integers(8, 400))
def test_tile_box_reproduces_the_planners_probe(planned, budget):
    probe, binding, shapes = planned
    nest = probe.nest
    plan = plan_nest(nest, ooc_tiling(nest), budget, binding, shapes)
    space = TileSpace(plan, binding, shapes)
    sums = []
    for frac in (0.0, 0.5, 1.0):
        box = tile_box(space.full, space.blocks, frac)
        assert list(box) == list(nest.loop_vars)
        for var, (lo, hi) in box.items():
            flo, fhi = space.full[var]
            assert flo <= lo and hi <= fhi
            if var in space.blocks:
                assert hi - lo + 1 == min(space.block, fhi - flo + 1)
            else:
                assert (lo, hi) == (flo, fhi)
        fps = nest_footprints(nest, box, binding, shapes)
        assert fps == space.footprints(box)
        sums.append(sum(region_size(r) for r, _, _ in fps.values()))
    assert plan.footprint_elements == max(sums)
    # the anchors: start at the range's low end, end at its high end
    for var in space.blocks:
        assert tile_box(space.full, space.blocks, 0.0)[var][0] == space.full[var][0]
        assert tile_box(space.full, space.blocks, 1.0)[var][1] == space.full[var][1]


@settings(max_examples=100, deadline=None)
@given(planned_nests(shapes=("rect",)), st.integers(1, 4))
def test_windowed_estimate_is_exact_on_rectangular_tiles(planned, n_nodes):
    plan, binding, shapes = planned
    nest = plan.nest
    points = list(nest.iterate(binding))
    assert nest.estimated_iterations(binding) == len(points)
    assert nest.estimated_iterations(binding, {}) == len(points)
    for rank in range(n_nodes):
        for windows, _, _ in TileSpace(plan, binding, shapes, (rank, n_nodes)):
            assert nest.estimated_iterations(binding, windows) == sum(
                _in(p, windows) for p in points
            )


def test_innermost_trip_pins_enclosing_loops_at_their_midpoints():
    nest, binding, _ = _nest("lower", 9, 2)  # j = 1..i, i pinned at 5
    assert nest.innermost_trip(binding) == 5
    assert nest.estimated_iterations(binding) == 9 * 5
    rect, binding, _ = _nest("rect", 7, 3)
    assert rect.innermost_trip(binding) == 7
