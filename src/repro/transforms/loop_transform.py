"""Applying a non-singular loop transformation to a perfect nest.

Given ``T``, the new iteration vector is ``I' = T·I``; new loop bounds
come from Fourier–Motzkin elimination on the transformed polytope, and
the body is rewritten with the exact substitution ``I = Q·I'`` where
``Q = T^{-1}``.  We require ``T`` unimodular, which keeps ``Q`` integral —
all matrices produced by the optimizer's completion step are unimodular.
"""

from __future__ import annotations

from typing import Sequence

from ..dependence import DependenceEdge, analyze_nest, transform_is_legal
from ..ir.affine import AffineExpr
from ..ir.loops import Bound, Loop
from ..ir.nest import LoopNest
from ..linalg import IMat, loop_bounds_for_transform

_NAME_POOL = "uvwxyzabcdefgh"


def transformed_loop_vars(nest: LoopNest) -> tuple[str, ...]:
    """Fresh loop-variable names for the transformed nest (the paper's
    ``u, v`` in the worked example), avoiding clashes with parameters."""
    taken = set(nest.params) | set(nest.loop_vars)
    candidates = list(_NAME_POOL) + [f"t{i}" for i in range(nest.depth)]
    out: list[str] = []
    for cand in candidates:
        if cand in taken:
            continue
        out.append(cand)
        if len(out) == nest.depth:
            break
    return tuple(out)


def apply_loop_transform(
    nest: LoopNest,
    t: IMat,
    *,
    new_vars: Sequence[str] | None = None,
    check_legality: bool = True,
    edges: list[DependenceEdge] | None = None,
) -> LoopNest:
    """Return the transformed nest (same semantics, new traversal order).
    ``edges`` are the nest's dependence edges when the caller already
    analysed it (the legality check runs against them); analysed here
    otherwise."""
    if t.shape != (nest.depth, nest.depth):
        raise ValueError(
            f"transform shape {t.shape} does not match nest depth {nest.depth}"
        )
    if not t.is_unimodular():
        raise ValueError(
            "loop transformation must be unimodular for exact code generation "
            f"(det = {t.det()})"
        )
    if t == IMat.identity(nest.depth):
        return nest
    if check_legality and not transform_is_legal(
        t, analyze_nest(nest) if edges is None else edges
    ):
        raise ValueError(f"transformation {t!r} violates dependences of {nest.name}")

    names = tuple(new_vars) if new_vars is not None else transformed_loop_vars(nest)
    tb = loop_bounds_for_transform(nest.constraint_system(), t, names)
    assert tb.exact  # unimodular

    loops = []
    for lb in tb.bounds:
        lowers = [
            Bound(AffineExpr.make(dict(term.coeffs), term.const), term.divisor)
            for term in lb.lowers
        ]
        uppers = [
            Bound(AffineExpr.make(dict(term.coeffs), term.const), term.divisor)
            for term in lb.uppers
        ]
        loops.append(Loop.from_bounds(lb.var, lowers, uppers))

    q = t.inverse_unimodular()
    # old var d = row d of Q applied to the new iteration vector
    substitution = {
        old: AffineExpr.make({nv: q[d, c] for c, nv in enumerate(names)})
        for d, old in enumerate(nest.loop_vars)
    }
    body = tuple(stmt.substituted(substitution) for stmt in nest.body)
    return LoopNest.make(nest.name, loops, body, nest.params, nest.weight)
