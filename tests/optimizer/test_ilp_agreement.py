"""Solver agreement across the full workload registry.

The MILP formulation and the exhaustive enumerator must agree — the
MILP's linearization of the (q, direction) product terms is exact, so
any objective gap is a formulation bug, not noise — and no local search
may beat the exhaustive optimum: a deterministic coordinate descent,
kept here as the witness, never does.  Run at small ``n``: the q-option
products stay tiny (max 24 combinations) so exhaustive enumeration is
cheap for every one of the 13 codes.
"""

import pytest

from repro.optimizer import optimize_program_ilp
from repro.optimizer.ilp import (
    _array_cost,
    _build_models,
    _total_cost,
    solve_exhaustive,
)
from repro.transforms import normalize_program
from repro.workloads import (
    analytics_names,
    build_analytics,
    build_workload,
    workload_names,
)

ALL = [(name, False) for name in workload_names()] + \
    [(name, True) for name in analytics_names()]


def solve_descent(models, dirs, b):
    """Deterministic coordinate descent to a local optimum: each nest's
    first legal ``q``, then alternate sweeps — every nest's best ``q``
    given the directions, every array's best direction given the
    nests' ``q`` — until a sweep changes nothing."""
    q_choice = {m.nest.name: m.q_options[0] for m in models}
    directions = {}
    for _ in range(32):  # descent converges in a handful of sweeps
        before = (dict(q_choice), dict(directions))
        for m in models:
            q_choice[m.nest.name] = min(m.q_options, key=lambda q: _total_cost(
                models, {**q_choice, m.nest.name: q}, directions, b
            ))
        for name in sorted(dirs):
            directions[name] = min(dirs[name], key=lambda d: _array_cost(
                models, q_choice, name, d, b
            ))
        if (q_choice, directions) == before:
            break
    return q_choice, directions, _total_cost(models, q_choice, directions, b)


def _models(name, analytics, n=8):
    build = build_analytics if analytics else build_workload
    p = normalize_program(build(name, n))
    b = p.binding()
    models, dirs = _build_models(p, b)
    return p, b, models, dirs


@pytest.mark.parametrize("name,analytics", ALL)
class TestAllWorkloads:
    def test_milp_objective_matches_exhaustive(self, name, analytics):
        _, b, models, dirs = _models(name, analytics)
        _, _, cost_ex = solve_exhaustive(models, dirs, b)
        decision = optimize_program_ilp(
            normalize_program(
                (build_analytics if analytics else build_workload)(name, 8)
            ),
            solver="milp",
        )
        objective = next(
            ev.data["objective"] for ev in decision.report
            if ev.kind == "solver" and "objective" in ev.data
        )
        assert objective == pytest.approx(cost_ex, rel=1e-9)

    def test_milp_decision_is_cost_equivalent(self, name, analytics):
        """The MILP's chosen assignment, re-priced by the shared cost
        evaluator, costs exactly what the exhaustive optimum costs —
        solutions may differ only within cost ties."""
        from repro.optimizer.ilp import solve_milp

        _, b, models, dirs = _models(name, analytics)
        q_m, d_m, cost_m = solve_milp(models, dirs, b)
        _, _, cost_ex = solve_exhaustive(models, dirs, b)
        assert _total_cost(models, q_m, d_m, b) == \
            pytest.approx(cost_m, rel=1e-12)
        assert cost_m == pytest.approx(cost_ex, rel=1e-9)

    def test_descent_never_beats_exhaustive(self, name, analytics):
        _, b, models, dirs = _models(name, analytics)
        _, _, cost_ds = solve_descent(models, dirs, b)
        _, _, cost_ex = solve_exhaustive(models, dirs, b)
        assert cost_ds >= cost_ex - 1e-9


def test_descent_is_deterministic():
    _, b, models, dirs = _models("adi", False)
    assert solve_descent(models, dirs, b) == \
        solve_descent(models, dirs, b)


@pytest.mark.parametrize("n", [64, 8192])
def test_ilp_objective_is_the_greedy_cost_model(n):
    """One per-reference call model: the ILP's objective of an
    assignment is what the greedy algorithm's ``estimate_nest_io``
    scores it — also past the request cap (innermost trip > 4096),
    where a copy of the model without ``run_cap`` used to diverge."""
    from repro.optimizer.cost import estimate_nest_io
    from repro.optimizer.ilp import solve_milp

    _, b, models, dirs = _models("trans", False, n=n)
    assert (models[0].nest.innermost_trip(b) > 4096) == (n > 4096)
    for solve in (solve_exhaustive, solve_milp):
        q, d, cost = solve(models, dirs, b)
        greedy = sum(
            estimate_nest_io(m.nest, d, q[m.nest.name], b) for m in models
        )
        assert cost == pytest.approx(greedy, rel=1e-12)
