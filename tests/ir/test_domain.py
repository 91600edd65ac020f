"""``repro.ir.domain`` is the one iteration-domain enumerator.  Here it
must visit exactly the points, in exactly the order, of the per-point
recursion it replaced (kept below as the oracle) — with tile windows,
pinned variables, divisor bounds over negative numerators, empty
ranges and triangular / coupled bounds."""

from hypothesis import given, settings, strategies as st

from repro.ir.affine import AffineExpr
from repro.ir.domain import affine, domain
from repro.ir.loops import Bound, Loop
from repro.ir.nest import LoopNest

from ..engine.test_tile_space import planned_nests


def _reference(nest, binding, windows=None, pinned=()):
    """The replaced recursion: a pinned variable sits at the midpoint of
    its (clipped) range, and an empty range ends the branch."""
    env = dict(binding)
    windows = windows or {}

    def rec(level):
        if level == nest.depth:
            yield tuple(env[v] for v in nest.loop_vars)
            return
        loop = nest.loops[level]
        lo, hi = loop.eval_range(env)
        if loop.var in windows:
            wlo, whi = windows[loop.var]
            lo, hi = max(lo, wlo), min(hi, whi)
        values = range(lo, hi + 1)
        if loop.var in pinned:
            values = [(lo + hi) // 2] if lo <= hi else []
        for v in values:
            env[loop.var] = v
            yield from rec(level + 1)
        env.pop(loop.var, None)

    return list(rec(0))


VARS = ("i", "j", "k")


@st.composite
def _bound(draw, outer):
    """``(c + a·N + Σ b_v·v) / d``: constants and coefficients of either
    sign, so numerators go negative and divisors floor / ceil them."""
    coeffs = {"N": draw(st.integers(-1, 2))}
    for v in outer:
        coeffs[v] = draw(st.integers(-2, 2))
    expr = AffineExpr.make(coeffs, draw(st.integers(-6, 6)))
    return Bound(expr, draw(st.integers(1, 3)))


@st.composite
def divisor_nests(draw):
    """Nests of depth 1–3 whose loops take 1–2 bounds a side, any of
    them coupled to the enclosing loops and any of them empty."""
    depth = draw(st.integers(1, 3))
    loops = []
    for level in range(depth):
        outer = VARS[:level]
        lowers = draw(st.lists(_bound(outer), min_size=1, max_size=2))
        uppers = draw(st.lists(_bound(outer), min_size=1, max_size=2))
        loops.append(Loop.from_bounds(VARS[level], lowers, uppers))
    nest = LoopNest.make("d", loops, (), ("N",))
    return nest, {"N": draw(st.integers(0, 7))}


@st.composite
def _windows_and_pins(draw, nest):
    windows = {}
    for v in nest.loop_vars:
        if draw(st.booleans()):
            lo = draw(st.integers(-8, 10))
            windows[v] = (lo, lo + draw(st.integers(-1, 6)))
    pinned = {v for v in nest.loop_vars if draw(st.booleans())}
    return windows, pinned


def _check(nest, binding, windows, pinned):
    want = _reference(nest, binding, windows, pinned)
    got = domain(nest, binding, windows, pinned)
    assert got.dtype.kind == "i" and got.shape == (len(want), nest.depth)
    assert [tuple(r) for r in got.tolist()] == want
    if not pinned:
        assert [tuple(p.values()) for p in nest.iterate(binding, windows)] == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_divisor_bounds_match_the_recursion(data):
    nest, binding = data.draw(divisor_nests())
    windows, pinned = data.draw(_windows_and_pins(nest))
    _check(nest, binding, windows, pinned)
    _check(nest, binding, None, ())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_planned_nests_match_the_recursion(data):
    """Rectangular, triangular and two-bound (banded) nests, through
    ``LoopNest.iterate`` and with the windows of every tile the walk
    visits."""
    plan, binding, shapes = data.draw(planned_nests())
    nest = plan.nest
    _check(nest, binding, None, ())
    windows, pinned = data.draw(_windows_and_pins(nest))
    _check(nest, binding, windows, pinned)


def test_empty_outer_and_inner_ranges():
    N = AffineExpr.var("N")
    i = AffineExpr.var("i")
    outer_empty = LoopNest.make(
        "e", [Loop.make("i", 3, 2), Loop.make("j", 1, N)], (), ("N",)
    )
    assert domain(outer_empty, {"N": 4}).shape == (0, 2)
    # j runs i..2: empty for i > 2, so rows of i = 3, 4 vanish
    inner = LoopNest.make(
        "t", [Loop.make("i", 1, N), Loop.make("j", i, 2)], (), ("N",)
    )
    assert domain(inner, {"N": 4}).tolist() == [[1, 1], [1, 2], [2, 2]]
    assert list(inner.iterate({"N": 4}, {"i": (2, 9)})) == [{"i": 2, "j": 2}]
    assert domain(inner, {"N": 4}, pinned={"j"}).tolist() == [[1, 1], [2, 2]]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_affine_is_evaluate_at_every_point(data):
    nest, binding = data.draw(divisor_nests())
    points = domain(nest, binding)
    exprs = [b.expr for loop in nest.loops for b in (*loop.lowers, *loop.uppers)]
    got = affine(exprs, nest.loop_vars, points, binding)
    assert got.shape == (len(points), len(exprs))
    for row, values in zip(points.tolist(), got.tolist()):
        env = {**binding, **dict(zip(nest.loop_vars, row))}
        assert values == [e.evaluate(env) for e in exprs]
