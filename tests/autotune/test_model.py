"""The configuration model: what stage B of ``solve_joint`` evaluates,
how often it plans, and (below) how its per-tile numbers relate to the
runtime's own accounting."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.autotune.model as model
from repro.autotune import TuneSpace, solve_joint
from repro.autotune.model import config_cost, plan_for, tile_io
from repro.engine.plan import program_edges
from repro.experiments.harness import _scaled_params
from repro.obs.profile import WORK
from repro.optimizer.ilp import optimize_program_ilp
from repro.parallel import run_version_parallel
from repro.runtime import (
    IOContext,
    MachineParams,
    OutOfCoreArray,
    ParallelFileSystem,
)
from repro.workloads import WORKLOADS, build_analytics, build_workload
from repro.workloads.registry import workload_names

from ..layout.strategies import map_cases

N = 32
N_NODES = 4
PARAMS = replace(_scaled_params(N), n_io_nodes=4)
#: perfbench's ``autotune_joint`` programs
JOINT_PROGRAMS = (*WORKLOADS, "pipeline")


def _program(name, n=N):
    build = build_workload if name in workload_names() else build_analytics
    return build(name, n)


def _whole_program_search(program, space):
    """Stage B as it was first written: every block candidate of every
    nest re-prices (and re-plans) the whole program."""
    gd = optimize_program_ilp(program, solver="milp")
    prog = gd.program
    b = prog.binding(None)
    shapes = {a.name: a.shape(b) for a in prog.arrays}
    budget = PARAMS.memory_budget(sum(math.prod(s) for s in shapes.values()))
    edges = program_edges(prog)

    def total(cache_budget, cb, tile_sizes):
        plans = {
            nest.name: plan_for(
                nest, b, shapes, budget - cache_budget,
                tile_sizes.get(nest.name), edges[nest.name],
            )
            for nest in prog.nests
        }
        return config_cost(
            prog, plans, binding=b, shapes=shapes, params=PARAMS,
            layouts=gd.layout_objects(), n_nodes=N_NODES,
            cache_budget=cache_budget, cb_nodes=cb,
        ).total_s

    best = None
    for cache_budget in sorted({int(f * budget) for f in space.cache_fractions}):
        for cb in space.cb_candidates(N_NODES):
            tiles = {}
            for nest in prog.nests:
                base = plan_for(
                    nest, b, shapes, budget - cache_budget, None,
                    edges[nest.name],
                )
                best_b = best_c = None
                for blk in space.tile_candidates(
                    nest.name, max(1, base.tile_size)
                ):
                    c = total(cache_budget, cb, {**tiles, nest.name: blk})
                    if best_c is None or c < best_c - 1e-12:
                        best_b, best_c = blk, c
                tiles[nest.name] = best_b
            c = total(cache_budget, cb, tiles)
            if best is None or c < best[0] - 1e-12:
                best = (c, cache_budget, cb, tiles)
    return best


@pytest.mark.parametrize("code", JOINT_PROGRAMS)
def test_per_nest_choice_equals_whole_program_search(code):
    program = _program(code)
    decision = solve_joint(program, params=PARAMS, n_nodes=N_NODES)
    total_s, cache_budget, cb, tiles = _whole_program_search(
        program, TuneSpace.default_for(N_NODES)
    )
    assert decision.tile_sizes == tiles
    assert decision.cache_budget == cache_budget
    assert decision.cb_nodes == cb
    assert decision.predicted_cost_s == total_s


@pytest.mark.parametrize("code", ["adi", "syr2k", "pipeline"])
def test_a_solve_plans_each_nest_budget_block_once(code, monkeypatch):
    asked = []
    plan_nest = model.plan_nest

    def spy(nest, spec, memory_budget, *args, force_block=None, **kw):
        asked.append((nest.name, memory_budget, force_block))
        return plan_nest(
            nest, spec, memory_budget, *args, force_block=force_block, **kw
        )

    monkeypatch.setattr(model, "plan_nest", spy)
    before = WORK.plan_nest_calls
    solve_joint(_program(code), params=PARAMS, n_nodes=N_NODES)
    assert asked
    assert WORK.plan_nest_calls - before == len(asked) == len(set(asked))


# -- the model's numbers against the runtime's own accounting ----------

#: small stripes and requests, so runs get sieved and split at the cap
MACHINE = dict(
    n_io_nodes=3, stripe_bytes=4 * 8, max_request_bytes=5 * 8,
    sieve_buffer_bytes=6 * 8,
)


@settings(max_examples=300, deadline=None)
@given(map_cases(), st.sampled_from([0, 2 * 8]), st.booleans())
def test_tile_io_is_what_the_enumerating_oracle_accounts(
    case, sieve_gap, is_write
):
    layout, shape, region = case
    params = MachineParams(sieve_gap_bytes=sieve_gap, **MACHINE)
    arr = OutOfCoreArray.create(
        "A", shape, layout, ParallelFileSystem(params), real=False
    )
    ctx = IOContext(params)
    arr.count_tile_io(region, ctx, is_write)
    calls, elements = tile_io(params, layout, shape, region)
    assert (calls, elements) == (ctx.stats.calls, ctx.stats.elements_moved)
    assert params.batch_time(calls, elements) == ctx.stats.io_time_s


UNCACHED = TuneSpace(cache_fractions=(0.0,), cb_nodes=(None,))


@pytest.mark.parametrize("code", ["trans", "emit", "gfunp"])
def test_congruent_tiles_are_priced_exactly(code):
    """Without cache and aggregators nothing but the representative
    tile is modelled; where every tile of a nest is congruent to it,
    the modelled calls are rank 0's measured calls."""
    decision = solve_joint(
        _program(code), params=PARAMS, n_nodes=N_NODES, space=UNCACHED
    )
    run = run_version_parallel(
        decision.version_config(), N_NODES, params=PARAMS,
        **decision.run_kwargs(),
    )
    measured = {
        nr.nest_name: nr.stats for nr in run.node_results[0].nest_runs
    }
    for cost in decision.predicted.per_nest:
        assert cost.read_calls == measured[cost.nest].read_calls
        assert cost.write_calls == measured[cost.nest].write_calls


@pytest.mark.parametrize("code", ["btrix", "emit"])
def test_compute_term_charges_every_statement_of_the_body(code):
    """``btrix.coef`` has 25 statements, ``emit.tail`` 6: the model and
    the executor both charge ``MachineParams.compute_time``."""
    decision = solve_joint(_program(code), params=PARAMS, n_nodes=N_NODES)
    assert max(len(nest.body) for nest in decision.program.nests) > 1
    run = run_version_parallel(
        decision.version_config(), N_NODES, params=PARAMS,
        **decision.run_kwargs(),
    )
    # rank 0 owns the ceiling share of a slab the model divides evenly
    assert decision.predicted.compute_s == pytest.approx(
        run.node_results[0].stats.compute_time_s, rel=0.05
    )
