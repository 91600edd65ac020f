"""Joint search: determinism, solver provenance, knob provenance, and
degenerate-space failures."""

import json
from dataclasses import replace

import pytest

from repro.autotune import TuneSpace, TuneSpaceError, solve_joint
from repro.cache import CacheConfig
from repro.collective.planner import CollectiveConfig
from repro.experiments.harness import _scaled_params
from repro.optimizer.ilp import SOLVERS
from repro.workloads import build_analytics, build_workload

N = 24
PARAMS = replace(_scaled_params(N), n_io_nodes=4)


def _solve(workload="adi", *, analytics=False, **kw):
    build = build_analytics if analytics else build_workload
    kw.setdefault("params", PARAMS)
    kw.setdefault("n_nodes", 4)
    return solve_joint(build(workload, N), **kw)


class TestSolveJoint:
    def test_decision_shape(self):
        d = _solve()
        assert d.solver in SOLVERS
        assert d.n_nodes == 4
        assert d.predicted_cost_s > 0
        assert set(d.tile_sizes) == {n.name for n in d.program.nests}
        assert all(b >= 1 for b in d.tile_sizes.values())
        assert 0 <= d.cache_budget < d.memory_budget

    def test_deterministic(self):
        a, b = _solve(), _solve()
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize(
        "workload,analytics",
        [("adi", False), ("mxm", False), ("pipeline", True)],
    )
    def test_edges_once_per_solve_changes_no_decision(
        self, workload, analytics, monkeypatch
    ):
        """The solve analyses each nest once and threads the edges down
        to ``plan_nest``; a planner that ignores them and analyses on
        every call (the pre-hoist behaviour) decides the same."""
        import repro.autotune.model as model
        import repro.engine.plan as plan_mod

        analyses = []
        analyze = plan_mod.analyze_nest
        monkeypatch.setattr(
            plan_mod, "analyze_nest",
            lambda nest: analyses.append(nest.name) or analyze(nest),
        )
        threaded = _solve(workload, analytics=analytics)
        assert sorted(analyses) == sorted(
            n.name for n in threaded.program.nests
        )
        assert sorted(threaded.edges) == sorted(analyses)
        assert threaded.version_config().edges is threaded.edges

        plan_nest = model.plan_nest
        monkeypatch.setattr(
            model, "plan_nest",
            lambda *a, edges=None, **kw: plan_nest(*a, **kw),
        )
        assert _solve(workload, analytics=analytics).to_dict() \
            == threaded.to_dict()

    def test_solver_provenance_milp(self):
        d = _solve(solver="auto")
        # scipy ships in the test environment, so auto resolves to milp
        assert d.solver == "milp"

    @pytest.mark.parametrize("solver", ["exhaustive", "milp"])
    def test_explicit_solvers_run_and_record(self, solver):
        d = _solve(solver=solver)
        assert d.solver == solver

    def test_exhaustive_matches_milp_objective(self):
        a = _solve(solver="milp")
        b = _solve(solver="exhaustive")
        assert a.objective == pytest.approx(b.objective, rel=1e-9)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            _solve(solver="simplex")

    def test_knob_provenance_complete(self):
        d = _solve()
        assert [k.knob for k in d.knobs] == [
            "layouts", "tile_sizes", "cache_budget", "cb_nodes"
        ]
        for k in d.knobs:
            assert k.predicted_s == pytest.approx(d.predicted_cost_s)
            # reverting the chosen setting never improves the model:
            # the sweep already considered the default
            assert k.delta_s >= -1e-9

    def test_report_carries_autotune_event(self):
        d = _solve()
        kinds = {e.kind for e in d.report}
        assert {"solver", "autotune", "knob"} <= kinds

    def test_to_dict_json_serializable(self):
        json.dumps(_solve().to_dict())


class TestRunConfig:
    def test_version_config_carries_ilp_layouts(self):
        d = _solve()
        cfg = d.version_config()
        assert cfg.name == "autotune"
        # layout_objects fills row-major defaults for untuned arrays
        assert set(cfg.layouts) >= set(d.decision.layouts)

    def test_cache_config_none_when_budget_zero(self):
        d = _solve(space=TuneSpace(cache_fractions=(0.0,)))
        assert d.cache_budget == 0
        assert d.cache_config() is None
        assert d.run_kwargs()["cache"] is None

    def test_cache_config_reflects_choice(self):
        d = _solve("pipeline", analytics=True)
        if d.cache_budget > 0:
            cc = d.cache_config()
            assert isinstance(cc, CacheConfig)
            assert cc.budget_elements == d.cache_budget

    def test_collective_config_matches_cb(self):
        d = _solve()
        cc = d.collective_config()
        if d.cb_nodes is None:
            assert cc is None
        else:
            assert isinstance(cc, CollectiveConfig)
            assert cc.cb_nodes == d.cb_nodes

    def test_run_kwargs_keys(self):
        assert set(_solve().run_kwargs()) == {
            "cache", "tile_sizes", "collective"
        }


class TestDegenerateSpaces:
    def test_cb_beyond_ranks_surfaces(self):
        with pytest.raises(TuneSpaceError, match="exceed"):
            _solve(space=TuneSpace(cb_nodes=(None, 8)), n_nodes=4)

    def test_cache_budget_below_one_tile(self):
        with pytest.raises(TuneSpaceError, match="below"):
            _solve(space=TuneSpace(cache_budget_elements=1))

    def test_cache_budget_at_memory_budget_infeasible(self):
        d = _solve()
        with pytest.raises(TuneSpaceError, match="cache budgets"):
            _solve(space=TuneSpace(
                cache_budget_elements=d.memory_budget * 2,
                cache_fractions=(0.5,),
            ))

    def test_explicit_tile_candidates_used(self):
        d = _solve(space=TuneSpace(
            tile_sizes={"adi.x": [2]}, cache_fractions=(0.0,)
        ))
        assert d.tile_sizes["adi.x"] == 2
