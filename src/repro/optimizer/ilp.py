"""Globally optimal layout + loop assignment via integer linear
programming — the paper's announced future work ("we are also working on
the problem of determining optimal file layouts using techniques from
integer linear programming", Section 5), implemented here as an
extension.

The greedy global algorithm (Section 3) fixes layouts in nest-cost order
and never revisits them; on programs with tangled layout conflicts it
can get stuck in a local optimum.  The exact formulation:

- per nest ``n``: a binary choice among the *legal* innermost directions
  ``q`` (each pre-verified to admit a dependence-legal unimodular
  completion);
- per array ``a``: a binary choice among candidate fast directions
  ``Δa`` (every direction some reference could realize, plus the
  temporal wildcard);
- the objective sums the per-reference I/O estimates, which depend on a
  *pair* of decisions — linearized with standard product variables
  ``z[n,q,a,d] >= x[n,q] + y[a,d] - 1``.

Solved with ``scipy.optimize.milp``; an exhaustive solver (optimal
per-array choice is separable once all ``q`` are fixed) cross-checks it
and serves as a fallback.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..dependence import DependenceEdge, analyze_nest
from ..ir.nest import LoopNest
from ..ir.program import Program
from ..linalg import IMat, primitive
from ..transforms import apply_loop_transform, normalize_program
from .cost import access_is_spatial, ref_calls
from .global_opt import GlobalDecision, ReportEvent
from .locality import (
    _elementary,
    _legal_completion,
    hyperplane_from_direction,
)

#: the solver names a decision can report having used
SOLVERS = ("milp", "exhaustive")


class MilpError(RuntimeError):
    """``scipy.optimize.milp`` is unavailable or failed to converge.

    Raised instead of silently falling back so callers decide the
    fallback *and* record the reason (:func:`optimize_program_ilp`
    reports it as a structured ``solver`` event)."""


@dataclass
class _NestModel:
    nest: LoopNest
    q_options: list[tuple[int, ...]]
    transforms: dict[tuple[int, ...], IMat]
    edges: list[DependenceEdge]  # what the transforms were found legal against


def _ref_cost(
    nest: LoopNest,
    l: IMat,
    rank: int,
    q: tuple[int, ...],
    direction: tuple[int, ...] | None,
    binding: Mapping[str, int],
    inner_trip: int,
) -> float:
    """The reference's weighted term of the objective:
    :func:`repro.optimizer.cost.ref_calls` — the greedy algorithm's own
    per-reference model, request cap included — on the weight-scaled
    iteration count."""
    iters = max(1, nest.estimated_iterations(binding))
    return ref_calls(nest.weight * iters, l, rank, q, direction, inner_trip)


def _build_models(
    program: Program, binding: Mapping[str, int]
) -> tuple[list[_NestModel], dict[str, list[tuple[int, ...]]]]:
    """Enumerate legal q options per nest and candidate directions per
    array."""
    models: list[_NestModel] = []
    dir_candidates: dict[str, set[tuple[int, ...]]] = {}
    for nest in program.nests:
        edges = analyze_nest(nest)
        q_options: list[tuple[int, ...]] = []
        transforms: dict[tuple[int, ...], IMat] = {}
        for idx in range(nest.depth - 1, -1, -1):
            q = _elementary(nest.depth, idx)
            t = _legal_completion(q, edges, nest.depth)
            if t is not None:
                q_options.append(q)
                transforms[q] = t
        if not q_options:  # should not happen: identity is always legal
            q = _elementary(nest.depth, nest.depth - 1)
            q_options, transforms = [q], {q: IMat.identity(nest.depth)}
        models.append(_NestModel(nest, q_options, transforms, edges))
        for _, ref, _ in nest.refs():
            if ref.rank < 2:
                continue
            l = nest.access_matrix(ref)
            for q in q_options:
                v = l.matvec(q)
                if any(v):
                    dir_candidates.setdefault(ref.array.name, set()).add(
                        primitive(v)
                    )
    # arrays never touched by a rank>=2 reference keep a default choice
    dirs = {
        name: sorted(cands) for name, cands in dir_candidates.items()
    }
    return models, dirs


def _total_cost(
    models: Sequence[_NestModel],
    q_choice: Mapping[str, tuple[int, ...]],
    directions: Mapping[str, tuple[int, ...]],
    binding: Mapping[str, int],
) -> float:
    total = 0.0
    for m in models:
        q = q_choice[m.nest.name]
        trip = m.nest.innermost_trip(binding)
        for _, ref, _ in m.nest.refs():
            l = m.nest.access_matrix(ref)
            total += _ref_cost(
                m.nest, l, ref.rank, q,
                directions.get(ref.array.name), binding, trip,
            )
    return total


def solve_exhaustive(
    models: Sequence[_NestModel],
    dirs: Mapping[str, list[tuple[int, ...]]],
    binding: Mapping[str, int],
) -> tuple[dict[str, tuple[int, ...]], dict[str, tuple[int, ...]], float]:
    """Optimal assignment by enumerating q-combinations; given fixed
    ``q``s the best direction decomposes per array."""
    best = None
    for combo in itertools.product(*[m.q_options for m in models]):
        q_choice = {m.nest.name: q for m, q in zip(models, combo)}
        directions: dict[str, tuple[int, ...]] = {}
        for name, options in dirs.items():
            best_d, best_c = None, None
            for d in options:
                c = _array_cost(models, q_choice, name, d, binding)
                if best_c is None or c < best_c:
                    best_d, best_c = d, c
            if best_d is not None:
                directions[name] = best_d
        cost = _total_cost(models, q_choice, directions, binding)
        if best is None or cost < best[2]:
            best = (q_choice, directions, cost)
    assert best is not None
    return best


def _array_cost(
    models: Sequence[_NestModel],
    q_choice: Mapping[str, tuple[int, ...]],
    array: str,
    direction: tuple[int, ...],
    binding: Mapping[str, int],
) -> float:
    total = 0.0
    for m in models:
        q = q_choice[m.nest.name]
        trip = m.nest.innermost_trip(binding)
        for _, ref, _ in m.nest.refs():
            if ref.array.name != array:
                continue
            l = m.nest.access_matrix(ref)
            total += _ref_cost(m.nest, l, ref.rank, q, direction, binding, trip)
    return total


def solve_milp(
    models: Sequence[_NestModel],
    dirs: Mapping[str, list[tuple[int, ...]]],
    binding: Mapping[str, int],
) -> tuple[dict[str, tuple[int, ...]], dict[str, tuple[int, ...]], float]:
    """The ILP formulation, solved with scipy's MILP (HiGHS).

    Raises :class:`MilpError` when scipy is missing or HiGHS reports
    failure — no silent fallback; the caller picks the substitute
    solver and logs why."""
    try:
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError as e:  # pragma: no cover - scipy ships in CI
        raise MilpError(f"scipy.optimize.milp unavailable: {e}") from e

    # variable layout: x[n][q], y[a][d], z[n,q,a,d] (only for pairs that
    # appear in some reference's cost)
    x_index: dict[tuple[str, tuple[int, ...]], int] = {}
    for m in models:
        for q in m.q_options:
            x_index[(m.nest.name, q)] = len(x_index)
    y_index: dict[tuple[str, tuple[int, ...]], int] = {}
    for a, options in dirs.items():
        for d in options:
            y_index[(a, d)] = len(x_index) + len(y_index)

    # costs: constant part (temporal / rank-1, independent of y) on x;
    # pair part on z
    x_cost = np.zeros(len(x_index))
    pair_cost: dict[tuple[int, int], float] = {}
    for m in models:
        trip = m.nest.innermost_trip(binding)
        for q in m.q_options:
            xi = x_index[(m.nest.name, q)]
            for _, ref, _ in m.nest.refs():
                l = m.nest.access_matrix(ref)
                v = l.matvec(q)
                if not any(v) or ref.rank == 1:
                    x_cost[xi] += _ref_cost(
                        m.nest, l, ref.rank, q, None, binding, trip
                    )
                    continue
                name = ref.array.name
                # bad unless the chosen direction matches: model as
                # bad-cost on x, plus a (negative) discount on the pair
                bad = _ref_cost(m.nest, l, ref.rank, q, None, binding, trip)
                x_cost[xi] += bad
                for d in dirs.get(name, []):
                    if access_is_spatial(l, q, d):
                        yi = y_index[(name, d)]
                        good = _ref_cost(
                            m.nest, l, ref.rank, q, d, binding, trip
                        )
                        pair_cost[(xi, yi)] = (
                            pair_cost.get((xi, yi), 0.0) + good - bad
                        )

    z_index = {pair: len(x_index) + len(y_index) + k
               for k, pair in enumerate(sorted(pair_cost))}
    n_vars = len(x_index) + len(y_index) + len(z_index)
    c = np.zeros(n_vars)
    c[: len(x_index)] = x_cost
    for pair, cost in pair_cost.items():
        c[z_index[pair]] = cost

    rows, lbs, ubs = [], [], []

    def add_row(coeffs: dict[int, float], lb: float, ub: float):
        row = np.zeros(n_vars)
        for k, v in coeffs.items():
            row[k] = v
        rows.append(row)
        lbs.append(lb)
        ubs.append(ub)

    # exactly one q per nest
    for m in models:
        add_row(
            {x_index[(m.nest.name, q)]: 1.0 for q in m.q_options}, 1.0, 1.0
        )
    # exactly one direction per array (with candidates)
    for a, options in dirs.items():
        add_row({y_index[(a, d)]: 1.0 for d in options}, 1.0, 1.0)
    # z == x AND y.  The pair costs are all discounts (negative), so the
    # minimizer pushes z up; z <= x and z <= y suffice.
    for (xi, yi), zi in z_index.items():
        add_row({z_index[(xi, yi)]: 1.0, xi: -1.0}, -np.inf, 0.0)
        add_row({z_index[(xi, yi)]: 1.0, yi: -1.0}, -np.inf, 0.0)

    res = milp(
        c=c,
        constraints=LinearConstraint(np.array(rows), np.array(lbs), np.array(ubs)),
        integrality=np.ones(n_vars),
        bounds=Bounds(0, 1),
    )
    if not res.success:  # pragma: no cover - HiGHS solves these trivially
        raise MilpError(
            f"MILP solver failed (status {res.status}): {res.message}"
        )
    q_choice = {
        n: q for (n, q), k in x_index.items() if res.x[k] > 0.5
    }
    directions = {
        a: d for (a, d), k in y_index.items() if res.x[k] > 0.5
    }
    cost = _total_cost(models, q_choice, directions, binding)
    return q_choice, directions, cost


def optimize_program_ilp(
    program: Program,
    *,
    binding: Mapping[str, int] | None = None,
    solver: str = "milp",
) -> GlobalDecision:
    """Jointly optimal layouts + loop choices (extension of the paper).

    ``solver`` requests ``"milp"`` or ``"exhaustive"``.
    A failed/unavailable MILP falls back to the exhaustive solver and
    the fallback is *recorded*: the decision report carries a
    structured ``solver`` event with the failure reason, and its data
    exposes which solver actually ran.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; known: {SOLVERS}")
    program = normalize_program(program)
    b = program.binding(binding)
    models, dirs = _build_models(program, b)
    events: list[ReportEvent] = []
    used = solver
    if solver == "milp":
        try:
            q_choice, directions, cost = solve_milp(models, dirs, b)
        except MilpError as e:
            used = "exhaustive"
            q_choice, directions, cost = solve_exhaustive(models, dirs, b)
            events.append(ReportEvent(
                "solver",
                f"MILP failed, fell back to exhaustive: {e}",
                {"requested": solver, "used": used, "reason": str(e)},
            ))
    else:
        q_choice, directions, cost = solve_exhaustive(models, dirs, b)

    transforms: dict[str, IMat] = {}
    new_nests = []
    for m in models:
        q = q_choice[m.nest.name]
        t = m.transforms[q]
        transforms[m.nest.name] = t
        if t == IMat.identity(m.nest.depth):
            new_nests.append(m.nest)
        else:
            new_nests.append(apply_loop_transform(m.nest, t, edges=m.edges))
    layouts = {}
    for a, d in directions.items():
        g = hyperplane_from_direction(d)
        if g is not None:
            layouts[a] = g
    report = events + [
        ReportEvent(
            "solver",
            f"ILP ({used}): objective {cost:.1f}",
            {"requested": solver, "used": used, "objective": cost},
        ),
        ReportEvent(
            "ilp",
            f"q choices: {q_choice}",
            {"q": {n: list(q) for n, q in q_choice.items()}},
        ),
        ReportEvent(
            "ilp",
            f"directions: {directions}",
            {"directions": {a: list(d) for a, d in directions.items()}},
        ),
    ]
    return GlobalDecision(
        program.with_nests(new_nests),
        layouts,
        dict(directions),
        transforms,
        [],
        report,
    )
