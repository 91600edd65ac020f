"""Dependences as a property of the nest, for every parameter value.

One question is answered here, by :func:`meeting_directions`: at which
direction patterns do two references, each in its nest under its
statement's guards, touch the same element for some binding of the
parameters (every parameter ≥ 1)?  Loop variables of both copies and
the parameters are unknowns; the subscript equalities (and ``==``
guards) are solved exactly over the integers, which disproves every
pair the GCD and coupled-Diophantine tests could.  On the solution
lattice ``x = x0 + B·t`` the loop bounds, ``>=`` guards and parameter
signs become inequalities in ``t``.  Patterns are refined level by
level: an ``=`` level cuts the lattice exactly (``delta = 0``), a ``<``
or ``>`` level adds ``±delta ≥ 1``, and a pattern is kept when
Fourier–Motzkin finds a rational ``t``.  That relaxation only adds
patterns, so the answer is sound for every N.

:func:`analyze_nest` turns the patterns of each reference pair of one
nest into :class:`DependenceEdge` objects: a uniform pair whose distance
``L·d = Δ`` has one integer solution keeps that distance (``exact``);
any other edge carries one sign vector per direction pattern.
"""

from __future__ import annotations

from ..ir.affine import AffineExpr
from ..ir.arrays import ArrayRef
from ..ir.nest import LoopNest
from ..ir.statements import Statement
from ..linalg import (
    Constraint, ConstraintSystem, IMat, fourier_motzkin, solve_diophantine,
)
from ..obs import profile as _prof
from .vectors import DependenceEdge, lex_positive

#: a reference in its statement in its nest
Access = tuple[LoopNest, Statement, ArrayRef]


def meeting_directions(
    a: Access, b: Access, levels: int
) -> set[tuple[int, ...]]:
    """Sign patterns (±1/0 per level) of ``x_b - x_a`` over the first
    ``levels`` loops at which reference ``a`` at iteration ``x_a`` and
    ``b`` at ``x_b``, each where its statement's guards hold, touch one
    element for some parameter values (all ≥ 1)."""
    (nest_a, _, ref_a), (nest_b, _, ref_b) = a, b
    cols: dict = {}  # unknown -> column: a's loop variables, b's, parameters
    for tag, nest in zip("ab", (nest_a, nest_b)):
        cols.update({(tag, v): len(cols) + k for k, v in enumerate(nest.loop_vars)})
    equalities, inequalities = [], []  # forms f with f == 0 / f >= 0
    for tag, (nest, stmt, _) in zip("ab", (a, b)):
        for g in stmt.guards:
            form = _form(g.expr, tag, nest, cols)
            (equalities if g.op == "==" else inequalities).append(form)
        for loop in nest.loops:  # d·v - e >= 0 below, e - d·v >= 0 above
            var = cols[tag, loop.var]
            for sign, bounds in ((-1, loop.lowers), (1, loop.uppers)):
                for bound in bounds:
                    coeffs, const = _form(bound.expr, tag, nest, cols, sign)
                    coeffs[var] = coeffs.get(var, 0) - sign * bound.divisor
                    inequalities.append((coeffs, const))
    for sa, sb in zip(ref_a.subscripts, ref_b.subscripts):
        fa, ca = _form(sa, "a", nest_a, cols)
        fb, cb = _form(sb, "b", nest_b, cols, -1)
        equalities.append(({c: fa.get(c, 0) + fb.get(c, 0) for c in fa | fb}, ca + cb))
    inequalities += [({c: 1}, -1) for key, c in cols.items() if isinstance(key, str)]
    deltas = [  # x_b - x_a per level
        {cols["b", vb]: 1, cols["a", va]: -1}
        for va, vb in zip(nest_a.loop_vars[:levels], nest_b.loop_vars)
    ]
    base = solve_diophantine(
        IMat([[f.get(c, 0) for c in range(len(cols))] for f, _ in equalities]),
        [-const for _, const in equalities],
    )
    if base is None:
        return set()
    # a pattern's state: the integer lattice x = x0 + B·t of its ``=``
    # levels, and over t the inequalities with its strict levels'
    # ±delta - 1 >= 0 (each form a (coefficients, constant) pair)
    lattice = (base.particular, base.basis)
    system = [_on(lattice, *f) for f in inequalities]
    states = {(): (lattice, system)} if _feasible(system, len(base.basis)) else {}
    for delta in deltas:
        refined = {}
        for pattern, (lattice, system) in states.items():
            coeffs, value = _on(lattice, delta, 0)
            if not any(coeffs):  # one distance on the whole lattice
                refined[pattern + ((value > 0) - (value < 0),)] = lattice, system
                continue
            for sign in (1, -1):
                more = system + [([sign * w for w in coeffs], sign * value - 1)]
                if _feasible(more, len(coeffs)):
                    refined[pattern + (sign,)] = lattice, more
            cut = solve_diophantine(IMat([coeffs]), [-value])  # t = t0 + C·u
            if cut is not None:
                sub = (cut.particular, cut.basis)
                flat = [_on(sub, dict(enumerate(c)), k) for c, k in system]
                if _feasible(flat, len(cut.basis)):
                    refined[pattern + (0,)] = _compose(lattice, sub), flat
        states = refined
    return set(states)


def _on(lattice, coeffs: dict, const: int) -> tuple[list[int], int]:
    """The form ``coeffs·x + const`` at ``x = x0 + B·t``, over ``t``."""
    x0, basis = lattice
    return (
        [sum(w * vec[c] for c, w in coeffs.items()) for vec in basis],
        const + sum(w * x0[c] for c, w in coeffs.items()),
    )


def _compose(lattice, sub):
    """``lattice`` at its parameters ``t = t0 + C·u`` of ``sub``."""
    x0, basis = lattice
    rows = [
        _on(sub, {k: vec[i] for k, vec in enumerate(basis)}, x)
        for i, x in enumerate(x0)
    ]
    return [x for _, x in rows], [list(v) for v in zip(*(c for c, _ in rows))]


def _feasible(system, dims: int) -> bool:
    """A rational ``t`` (``dims`` of them) makes every form of ``system``
    ``>= 0``: Fourier–Motzkin, the variable with the fewest lower ×
    upper pairs first, keeping only the tightest of parallel
    constraints."""
    variables = [f"t{k}" for k in range(dims)]
    constraints = [
        Constraint.make(dict(zip(variables, coeffs)), const)
        for coeffs, const in system
    ]
    while True:
        tightest: dict[tuple, Constraint] = {}
        pairs = {v: [0, 0] for v in variables}
        for c in constraints:
            if c.is_trivially_false():
                return False
            if c.coeffs not in tightest or c.const < tightest[c.coeffs].const:
                tightest[c.coeffs] = c
        if not variables:
            return True
        for c in tightest.values():
            for v, w in c.coeffs:
                pairs[v][w < 0] += 1
        var = min(variables, key=lambda v: pairs[v][0] * pairs[v][1])
        left = fourier_motzkin(ConstraintSystem(variables, (), tightest.values()), var)
        variables, constraints = left.variables, left.constraints


def _form(expr: AffineExpr, tag: str, nest: LoopNest, cols: dict, sign: int = 1):
    """``sign·expr`` of copy ``tag`` as ``({column: coefficient},
    constant)``; a name that is not one of ``nest``'s loop variables is a
    parameter, given a column of ``cols`` when first met."""
    coeffs: dict[int, int] = {}
    for name, c in expr.coeffs:
        unknown = (tag, name) if name in nest.loop_vars else name
        col = cols.setdefault(unknown, len(cols))
        coeffs[col] = coeffs.get(col, 0) + sign * c
    return coeffs, sign * expr.const


def _is_uniform(r1: ArrayRef, r2: ArrayRef, loop_vars) -> bool:
    if r1.access_matrix(loop_vars) != r2.access_matrix(loop_vars):
        return False
    # offsets must differ only by integer constants (params must match)
    return not any(
        (o1 - o2).coeffs
        for o1, o2 in zip(r1.offset_exprs(loop_vars), r2.offset_exprs(loop_vars))
    )


def _exact_distance(r1: ArrayRef, r2: ArrayRef, loop_vars):
    """The one integer ``d`` with ``L·d = o1 - o2`` for a uniform pair
    (``L`` the shared access matrix), else None."""
    if not _is_uniform(r1, r2, loop_vars):
        return None
    delta = [
        (o1 - o2).const
        for o1, o2 in zip(r1.offset_exprs(loop_vars), r2.offset_exprs(loop_vars))
    ]
    solution = solve_diophantine(r1.access_matrix(loop_vars), delta)
    return None if solution is None or solution.basis else solution.particular


def analyze_nest(nest: LoopNest) -> list[DependenceEdge]:
    """All data dependences carried by or within one nest."""
    refs = list(nest.refs())  # (stmt_idx, ref, is_write)
    hits: dict[tuple[str, int, int, str], set[tuple[int, ...]]] = {}
    inexact: set[tuple] = set()
    seen_pairs: set[tuple] = set()
    for a, (i1, r1, w1) in enumerate(refs):
        for i2, r2, w2 in refs[a:]:
            if not (w1 or w2) or r1.array.name != r2.array.name:
                continue
            pair = (i1, id(r1), w1, i2, id(r2), w2)
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            _prof.WORK.dependence_pairs += 1
            patterns = meeting_directions(
                (nest, nest.body[i1], r1), (nest, nest.body[i2], r2), nest.depth
            )
            exact = _exact_distance(r1, r2, nest.loop_vars)
            for p in sorted(patterns, reverse=True):
                if not any(p) and i1 == i2:
                    continue  # the same instance of the same statement
                forward = lex_positive(p) if any(p) else i1 < i2
                vec = p if exact is None else exact
                src, src_w, dst, dst_w = (
                    (i1, w1, i2, w2) if forward else (i2, w2, i1, w1)
                )
                kind = "output" if src_w and dst_w else "flow" if src_w else "anti"
                key = (r1.array.name, src, dst, kind)
                hits.setdefault(key, set()).add(
                    tuple(vec) if forward else tuple(-v for v in vec)
                )
                if exact is None:
                    inexact.add(key)
    return [
        DependenceEdge(*key, frozenset(dists), key not in inexact)
        for key, dists in hits.items()
    ]
