"""Planning inputs are validated once, at construction, with named
errors — on both entry points, and before any store or file exists."""

import os
from dataclasses import replace

import pytest

from repro.autotune import solve_joint
from repro.backends import MmapBackend
from repro.engine import OOCExecutor
from repro.engine.executor import plan_program
from repro.optimizer.strategies import build_version
from repro.parallel import run_version_parallel, speedup_curve
from repro.transforms.tiling import TilingSpec, ooc_tiling
from repro.workloads import build_workload

PROGRAM = build_workload("mxm", 16)  # nests mxm.init (depth 2), mxm.jki (3)
CFG = build_version("col", PROGRAM)


def _executor(**kw):
    return OOCExecutor(PROGRAM, backend="simulate", **kw)


def _spmd(cfg=CFG, **kw):
    return run_version_parallel(cfg, 2, **kw)


class TestUnknownTileSizesKey:
    MATCH = r"tile_sizes names nest 'nope'.*'mxm\.init', 'mxm\.jki'"

    def test_executor(self):
        with pytest.raises(ValueError, match=self.MATCH):
            _executor(tile_sizes={"nope": 2})

    def test_spmd(self):
        with pytest.raises(ValueError, match=self.MATCH):
            _spmd(tile_sizes={"nope": 3})


class TestTilingMappingMissingNest:
    MATCH = r"no spec for nest 'mxm\.init'"

    def test_executor(self):
        with pytest.raises(ValueError, match=self.MATCH):
            _executor(tiling={})

    def test_spmd(self):
        with pytest.raises(ValueError, match=self.MATCH):
            _spmd(replace(CFG, tiling={}))


@pytest.mark.parametrize("levels", [1, 5], ids=["shorter", "longer"])
class TestSpecArity:
    def _tiling(self, levels):
        return lambda nest: TilingSpec((True,) * levels)

    def _match(self, levels):
        return rf"nest 'mxm\.init' has depth 2 .* has {levels} levels"

    def test_executor(self, levels):
        with pytest.raises(ValueError, match=self._match(levels)):
            _executor(tiling=self._tiling(levels))

    def test_spmd(self, levels):
        with pytest.raises(ValueError, match=self._match(levels)):
            _spmd(replace(CFG, tiling=self._tiling(levels)))


@pytest.mark.parametrize("budget", [0, -1])
class TestNonPositiveBudget:
    """``0`` is not "unset": it raises what ``-1`` always raised."""

    MATCH = "memory budget must be positive"

    def test_executor(self, budget):
        with pytest.raises(ValueError, match=self.MATCH):
            _executor(memory_budget=budget)

    def test_spmd(self, budget):
        with pytest.raises(ValueError, match=self.MATCH):
            _spmd(memory_per_node=budget)

    def test_hopt_chunk_sizing(self, budget):
        with pytest.raises(ValueError, match=self.MATCH):
            build_version("h-opt", PROGRAM, memory_budget=budget)

    def test_solve_joint(self, budget):
        with pytest.raises(ValueError, match=self.MATCH):
            solve_joint(PROGRAM, memory_budget=budget)


@pytest.mark.parametrize("n_nodes", [0, -2, 1.5])
class TestNodeCount:
    """One rule on every entry point that takes a node count: not an
    empty run dying in ``makespan``, a ``TypeError`` from ``range`` or
    a silently clamped cluster."""

    def _match(self, n_nodes):
        return rf"n_nodes must be a positive integer, got {n_nodes!r}$"

    def test_spmd_before_any_file(self, n_nodes, tmp_path):
        with pytest.raises(ValueError, match=self._match(n_nodes)):
            run_version_parallel(
                CFG, n_nodes, backend=MmapBackend(str(tmp_path))
            )
        assert os.listdir(tmp_path) == []

    def test_speedup_curve_checks_every_entry(self, n_nodes):
        with pytest.raises(ValueError, match=self._match(n_nodes)):
            speedup_curve(CFG, (2, n_nodes))

    @pytest.mark.parametrize("version", ["c-opt", "h-opt"])
    def test_build_version(self, n_nodes, version):
        with pytest.raises(ValueError, match=self._match(n_nodes)):
            build_version(version, PROGRAM, n_nodes=n_nodes)

    def test_solve_joint(self, n_nodes):
        with pytest.raises(ValueError, match=self._match(n_nodes)):
            solve_joint(PROGRAM, n_nodes=n_nodes)


class TestHandedInPlans:
    def test_must_cover_exactly_the_programs_nests(self):
        plans = _executor().plans
        assert sorted(plans) == ["mxm.init", "mxm.jki"]
        _executor(plans=plans)  # accepted as is
        missing = {"mxm.jki": plans["mxm.jki"]}
        with pytest.raises(ValueError, match=r"plans cover nests \['mxm\.jki'\]"):
            _executor(plans=missing)
        extra = {**plans, "ghost": plans["mxm.jki"]}
        with pytest.raises(ValueError, match="ghost"):
            _executor(plans=extra)

    def test_plans_are_used_not_rebuilt(self):
        small = _executor(memory_budget=4096, tile_sizes={"mxm.jki": 2})
        ex = _executor(memory_budget=4096, plans=small.plans)
        assert ex.plans["mxm.jki"].tile_size == 2
        run = ex.run()
        for nr in run.nest_runs:
            assert nr.plan is small.plans[nr.nest_name]


def test_errors_come_before_any_file(tmp_path):
    """The planning step runs before storage is built: a bad input
    leaves the backend's directory empty."""
    for bad in (
        {"tile_sizes": {"nope": 2}},
        {"tiling": {}},
        {"tiling": lambda nest: TilingSpec((True,))},
        {"plans": {}},
    ):
        with pytest.raises(ValueError):
            OOCExecutor(PROGRAM, backend=MmapBackend(str(tmp_path)), **bad)
        assert os.listdir(tmp_path) == []


def test_plan_program_is_the_executors_planning():
    ex = _executor(tile_sizes={"mxm.jki": 3})
    direct = plan_program(
        PROGRAM, ooc_tiling, ex.memory_budget, ex.binding, ex.shapes,
        tile_sizes={"mxm.jki": 3},
    )
    assert direct == dict(ex.plans)
