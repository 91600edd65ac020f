"""The SPMD driver walks a nest on every rank at once — one derivation
per nest, each rank's slice through its own recorder — and that is
invisible: every rank's result is what the rank gives when run as a
lone ``OOCExecutor(node_slice=(r, n))`` on its own staggered file
system (the permanent oracle of ``test_plan_sharing``, here across rank
counts with idle ranks, every run mode, and block boundaries that fall
inside and between ranks)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.executor as executor_mod
import repro.parallel.spmd as spmd_mod
from repro.cache import CacheConfig
from repro.collective import CollectiveConfig
from repro.engine import OOCExecutor
from repro.engine.executor import InterleavedStoreSpec, run_ranks
from repro.experiments.harness import _scaled_params
from repro.faults import FaultConfig, FaultPlan, ResiliencePolicy
from repro.ir.program import Program
from repro.layout import BlockedLayout, col_major, row_major
from repro.obs import Observability
from repro.optimizer.strategies import build_version
from repro.parallel import makespan, run_version_parallel
from repro.parallel.spmd import _collective_run
from repro.runtime import ParallelFileSystem
from repro.workloads import build_analytics, build_workload
from repro.workloads.registry import analytics_names, workload_names
from tests.engine.test_tile_space import planned_nests

N = 12
PARAMS = replace(_scaled_params(N), n_io_nodes=4)
ALL_WORKLOADS = tuple(workload_names()) + tuple(analytics_names())
VERSIONS = ("col", "c-opt", "h-opt")
NODE_COUNTS = (1, 2, 3, 5, 16, 40)  # 40 > N: most ranks own no iteration

VARIANTS = {
    "plain": {},
    "trace": {"trace": True},
    "cache": {
        "trace": True,
        "cache": CacheConfig(policy="lru", budget_fraction=0.25),
    },
    "faults": {
        "trace": True,
        "faults": FaultConfig(
            FaultPlan(seed=3, read_error_rate=0.02, stragglers={1: 2.0}),
            ResiliencePolicy(max_retries=6),
        ),
    },
    "collective": {"collective": CollectiveConfig(mode="auto")},
    "memory": {"trace": True, "backend": "memory"},
}


def _program(name, n=N):
    build = build_workload if name in workload_names() else build_analytics
    return build(name, n)


def _lone_ranks(cfg, n_nodes, kw):
    """Every rank as its own executor, with the driver's budget and file
    stagger (a collective run's ranks are traced, as the driver's are).
    Rank 0 plans for all: that sharing plans is invisible is
    ``test_plan_sharing``'s business, and 40 ranks planning is slow."""
    b = cfg.program.binding(None)
    total = cfg.program.total_elements(b)
    kw = {"trace": "collective" in kw, **kw}
    kw.pop("collective", None)
    kw.setdefault("backend", "simulate")
    ranks = []
    for rank in range(n_nodes):
        pfs = ParallelFileSystem(PARAMS)
        pfs.advance(rank * max(1, total // n_nodes))
        ranks.append(OOCExecutor(
            cfg.program, cfg.layouts, params=PARAMS,
            memory_budget=PARAMS.memory_budget(total, None),
            tiling=cfg.tiling, storage_spec=cfg.storage_spec, pfs=pfs,
            node_slice=(rank, n_nodes) if n_nodes > 1 else None,
            plans=ranks[0].plans if ranks else None, edges=cfg.edges, **kw,
        ))
    return ranks


def _rank_view(result):
    return (
        result.stats.to_dict(),
        result.io_node_load.tolist(),
        [(nr.nest_name, nr.tiles_executed, nr.trace, nr.trace_weight,
          nr.stats.to_dict()) for nr in result.nest_runs],
        result.peak_memory,
        result.over_budget_tiles,
        result.cache_metrics,
    )


def _assert_lockstep_is_lone(cfg, n_nodes, kw, monkeypatch, where):
    """``run_version_parallel`` against the lone ranks; with a
    data-carrying backend, every rank's array bytes as well."""
    driven = []

    def spy(ranks, tracer=None):
        driven.extend(ranks)
        return run_ranks(ranks, tracer)

    monkeypatch.setattr(spmd_mod, "run_ranks", spy)
    run = run_version_parallel(cfg, n_nodes, params=PARAMS, **kw)
    lone = _lone_ranks(cfg, n_nodes, kw)
    want = [ex.run() for ex in lone]
    if "collective" in kw:
        oracle = _collective_run(
            cfg.name, n_nodes, PARAMS, want, kw["collective"]
        )
        want, time_s = oracle.node_results, oracle.time_s
    else:
        time_s = makespan(want)
    assert run.time_s == time_s, where
    assert len(run.node_results) == len(driven) == n_nodes, where
    for rank, (got, ex) in enumerate(zip(run.node_results, lone)):
        assert _rank_view(got) == _rank_view(want[rank]), (where, rank)
        if ex.real:
            for name in ex.shapes:
                ours, theirs = driven[rank].array_data(name), ex.array_data(name)
                assert ours.dtype == theirs.dtype, (where, rank, name)
                assert ours.tobytes() == theirs.tobytes(), (where, rank, name)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_every_rank_is_what_it_is_alone(workload, variant, monkeypatch):
    program = _program(workload)
    for version in VERSIONS:
        cfg = build_version(version, program, params=PARAMS)
        for n_nodes in NODE_COUNTS:
            _assert_lockstep_is_lone(
                cfg, n_nodes, VARIANTS[variant], monkeypatch,
                f"{workload}/{version}/{variant}/p={n_nodes}",
            )


@pytest.mark.parametrize("version", VERSIONS)
def test_forgetting_a_ranks_file_base_shift_is_caught(version, monkeypatch):
    """The mutation the oracle exists for: derive every rank's runs off
    rank 0's stores and leave the file bases where rank 0's are."""
    cfg = build_version(version, _program("adi"), params=PARAMS)
    account = executor_mod._DirectTileIO.account

    def unshifted(self, walk, *span):
        return account(self, ((ctx, 0, tile) for ctx, _, tile in walk), *span)

    monkeypatch.setattr(executor_mod._DirectTileIO, "account", unshifted)
    _assert_lockstep_is_lone(cfg, 1, {"trace": True}, monkeypatch, "p=1")
    with pytest.raises(AssertionError):
        _assert_lockstep_is_lone(cfg, 3, {"trace": True}, monkeypatch, "p=3")


def test_a_span_per_rank_and_per_derived_block():
    cfg = build_version("c-opt", _program("adi"), params=PARAMS)
    obs = Observability()
    run = run_version_parallel(cfg, 3, params=PARAMS, obs=obs)
    spans = obs.tracer.wall_spans
    by_id = {s.span_id: s for s in spans}
    nests = [s for s in spans if s.name.startswith("nest ")]
    assert [s.name for s in nests] == [
        f"nest {nest.name}" for nest in cfg.program.nests
    ]
    # every rank has its span in every nest, idle or not, and they add
    # up to the rank's calls
    for rank, result in enumerate(run.node_results):
        of_rank = [s for s in spans if s.name == f"rank {rank}"]
        assert [by_id[s.parent_id] for s in of_rank] == nests
        assert sum(s.args["calls"] for s in of_rank) == result.stats.calls
    # the shared derivation shows as its own spans: every tile of the
    # nest in some block, the first block before any rank runs
    for nest in nests:
        derived = [
            s for s in spans if s.name == f"derive {nest.args['nest']}"
        ]
        assert all(nest.start_s <= s.start_s <= nest.end_s for s in derived)
        assert by_id[derived[0].parent_id] is nest
        assert sum(s.args["tiles"] for s in derived) == nest.args["tiles"]
        assert all(s.args["runs"] > 0 for s in derived)


# -- generated nests, random rank counts, tiny blocks -------------------------

LAYOUTS = {
    "row": lambda depth: {"layouts": {"A": row_major(depth)}},
    "col": lambda depth: {"layouts": {"A": col_major(depth)}},
    "blocked": lambda depth: {"layouts": {"A": BlockedLayout((2,) * depth)}},
    "chunked": lambda depth: {
        "storage_spec": {"A": InterleavedStoreSpec("g", (2,) * depth)}
    },
}


@settings(max_examples=120, deadline=None)
@given(
    planned_nests(), st.integers(1, 7), st.sampled_from(sorted(LAYOUTS)),
    st.integers(1, 40),
)
def test_generated_nests_any_rank_count_any_block(
    planned, n_nodes, layout, batch_runs
):
    """Blocks of ``batch_runs`` runs end inside a rank's walk and across
    ranks; the oracle records tile by tile and never derives a block."""
    plan, binding, shapes = planned
    array = next(plan.nest.refs())[1].array
    program = Program.make(
        "t", [array], [plan.nest], params=("N",), default_binding=binding
    )
    params = replace(_scaled_params(4), n_io_nodes=3)

    def pfs_of(r):
        pfs = ParallelFileSystem(params)
        pfs.advance(r * 13)
        return pfs

    def rank(r):
        return OOCExecutor(
            program, params=params, backend="simulate", trace=True, pfs=pfs_of(r),
            node_slice=(r, n_nodes), plans={plan.nest.name: plan},
            **LAYOUTS[layout](array.rank),
        )

    want = []
    for r in range(n_nodes):
        lone = rank(r)
        lone._static_io = False
        want.append(_rank_view(lone.run()))
    ranks = [rank(0)]
    ranks += [
        ranks[0].for_rank((r, n_nodes), pfs_of(r), ranks[0].backend.clone())
        for r in range(1, n_nodes)
    ]
    before = executor_mod._BATCH_RUNS
    executor_mod._BATCH_RUNS = batch_runs
    try:
        got = run_ranks(ranks)
    finally:
        executor_mod._BATCH_RUNS = before
    assert [_rank_view(result) for result in got] == want
