"""Joint knob search: layouts × loop orders × tiles × cache × cb_nodes.

Stage A solves the layout/loop slice with the exact machinery of
:mod:`repro.optimizer.ilp` (MILP when scipy's HiGHS is available,
exhaustive enumeration as the recorded fallback or on request).  Stage
B prices the remaining machine knobs — per-nest block sizes, the
tile-cache share of the memory budget, and the collective aggregator
count — on the configuration model of :mod:`repro.autotune.model`, by
deterministic grid sweep: the per-nest block choice is separable once
the cache share is fixed, so the sweep is ``|cache| x |cb_nodes|``
outer by ``|blocks|`` inner.

The result is a typed :class:`TuneDecision`: every knob carries its
chosen value, the candidates it beat, and the predicted-cost delta of
reverting it to the default — so a report reader can see *why* each
setting was picked, and a benchmark can assert *which* solver ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..cache import CacheConfig
from ..collective.planner import CollectiveConfig
from ..dependence import DependenceEdge
from ..engine.plan import NestPlan, program_edges
from ..ir.nest import LoopNest
from ..ir.program import Program
from ..layout import Layout, row_major
from ..optimizer.global_opt import GlobalDecision, ReportEvent
from ..optimizer.ilp import SOLVERS, optimize_program_ilp
from ..optimizer.strategies import VersionConfig
from ..runtime import MachineParams
from ..runtime.params import check_n_nodes
from ..transforms.tiling import ooc_tiling
from .model import (
    ConfigCost,
    config_cost,
    nest_config_cost,
    plan_for,
    warm_nests,
)
from .space import TuneSpace, TuneSpaceError


@dataclass(frozen=True)
class KnobChoice:
    """One knob's provenance: what was chosen, from which candidates,
    and what reverting it to the default would cost."""

    knob: str
    chosen: object
    candidates: tuple
    #: modeled seconds of the full chosen configuration
    predicted_s: float
    #: modeled seconds *added* by reverting this knob to its default
    #: (>= 0 means the chosen setting helps under the model)
    delta_s: float

    def to_dict(self) -> dict:
        return {
            "knob": self.knob,
            "chosen": self.chosen,
            "candidates": list(self.candidates),
            "predicted_s": self.predicted_s,
            "delta_s": self.delta_s,
        }


@dataclass
class TuneDecision:
    """A complete machine configuration plus its provenance."""

    decision: GlobalDecision
    #: which stage-A solver actually ran: "milp" | "exhaustive" (a
    #: failed MILP records the fallback here)
    solver: str
    #: stage-A objective (the paper's call model, relative units)
    objective: float
    tile_sizes: dict[str, int]
    cache_budget: int
    cache_policy: str
    cb_nodes: int | None
    n_nodes: int
    memory_budget: int
    #: modeled seconds of the chosen configuration
    predicted: ConfigCost
    knobs: list[KnobChoice] = field(default_factory=list)
    report: list[ReportEvent] = field(default_factory=list)
    #: dependence edges of the decided program's nests, analysed once
    #: by the solve and handed on to the run through `version_config`
    edges: dict[str, list[DependenceEdge]] | None = field(
        default=None, repr=False
    )

    @property
    def predicted_cost_s(self) -> float:
        return self.predicted.total_s

    @property
    def program(self) -> Program:
        return self.decision.program

    def layout_objects(self) -> dict[str, Layout]:
        return self.decision.layout_objects()

    def version_config(self, name: str = "autotune") -> VersionConfig:
        return VersionConfig(
            name, self.program, self.layout_objects(), ooc_tiling,
            edges=self.edges,
        )

    def cache_config(self) -> CacheConfig | None:
        if self.cache_budget <= 0:
            return None
        return CacheConfig(
            policy=self.cache_policy, budget_elements=self.cache_budget
        )

    def collective_config(self) -> CollectiveConfig | None:
        if self.cb_nodes is None:
            return None
        return CollectiveConfig(mode="auto", cb_nodes=self.cb_nodes)

    def run_kwargs(self) -> dict:
        """Keyword arguments realizing this decision under
        :func:`repro.parallel.run_version_parallel`."""
        return {
            "cache": self.cache_config(),
            "tile_sizes": dict(self.tile_sizes) or None,
            "collective": self.collective_config(),
        }

    @property
    def report_lines(self) -> list[str]:
        return [str(e) for e in self.report]

    def to_dict(self) -> dict:
        return {
            "solver": self.solver,
            "objective": self.objective,
            "predicted_cost_s": self.predicted_cost_s,
            "tile_sizes": dict(self.tile_sizes),
            "cache_budget": self.cache_budget,
            "cache_policy": self.cache_policy,
            "cb_nodes": self.cb_nodes,
            "n_nodes": self.n_nodes,
            "memory_budget": self.memory_budget,
            "knobs": [k.to_dict() for k in self.knobs],
        }


def solve_joint(
    program: Program,
    *,
    binding: Mapping[str, int] | None = None,
    params: MachineParams | None = None,
    n_nodes: int = 1,
    memory_budget: int | None = None,
    space: TuneSpace | None = None,
    solver: str = "auto",
) -> TuneDecision:
    """Jointly choose layouts, loop orders, tile sizes, the cache
    budget and the collective aggregator count.

    ``solver`` is the stage-A request: ``"auto"`` (MILP with recorded
    exhaustive fallback) or an explicit member of
    :data:`repro.optimizer.ilp.SOLVERS`.
    """
    if solver != "auto" and solver not in SOLVERS:
        raise ValueError(
            f"unknown solver {solver!r}; known: ('auto',) + {SOLVERS}"
        )
    check_n_nodes(n_nodes)
    params = params or MachineParams()
    space = space or TuneSpace.default_for(n_nodes)
    space.validate_ranks(n_nodes)

    # -- stage A: layouts x loop orders on the paper's call model ------
    requested = "milp" if solver == "auto" else solver
    gd = optimize_program_ilp(program, binding=binding, solver=requested)
    used, objective = requested, 0.0
    for ev in gd.report:
        if ev.kind == "solver" and "used" in ev.data:
            used = ev.data["used"]
            objective = ev.data.get("objective", objective)
    prog = gd.program
    b = prog.binding(binding)
    shapes = {a.name: a.shape(b) for a in prog.arrays}
    budget = params.memory_budget(prog.total_elements(b), memory_budget)
    layouts = gd.layout_objects()
    # the candidates below plan the same nests under other budgets and
    # tile sizes: their dependence edges are analysed once, here, and
    # each (nest, plan budget, block) is planned once per solve
    edges = program_edges(prog)
    plans: dict[tuple[str, int, int | None], NestPlan] = {}

    def plan(
        nest: LoopNest, plan_budget: int, blk: int | None = None
    ) -> NestPlan:
        key = (nest.name, plan_budget, blk)
        if key not in plans:
            plans[key] = plan_for(
                nest, b, shapes, plan_budget, blk, edges[nest.name]
            )
        return plans[key]

    # -- stage B: tiles x cache x cb_nodes on the machine model --------
    def cache_candidates() -> list[int]:
        if space.cache_budget_elements is not None:
            if space.cache_budget_elements >= budget:
                raise TuneSpaceError(
                    f"no feasible cache budgets below the memory budget: "
                    f"cache_budget_elements {space.cache_budget_elements} "
                    f">= memory budget {budget}"
                )
            cands = [0, space.cache_budget_elements]
        else:
            cands = sorted({
                int(f * budget) for f in space.cache_fractions
            })
        return [c for c in cands if c < budget]

    cache_cands = cache_candidates()
    if not cache_cands:
        raise TuneSpaceError(
            f"no feasible cache budgets below the memory budget "
            f"{budget} (candidates {space.cache_fractions})"
        )
    if space.cache_budget_elements is not None:
        min_tile = min(
            plan(
                nest, budget - space.cache_budget_elements, 1
            ).footprint_elements
            for nest in prog.nests
        )
        if space.cache_budget_elements < min_tile:
            raise TuneSpaceError(
                f"cache budget {space.cache_budget_elements} is below "
                f"one tile (smallest tile footprint {min_tile})"
            )
    cb_cands = space.cb_candidates(n_nodes)

    pricing = dict(
        binding=b, shapes=shapes, params=params, n_nodes=n_nodes
    )
    warm = warm_nests(prog)

    def better(cost, incumbent) -> bool:
        return incumbent is None or cost.total_s < incumbent.total_s - 1e-12

    best = None
    for cache_budget in cache_cands:
        plan_budget = budget - cache_budget
        for cb in cb_cands:
            # with the cache share and cb fixed a nest's cost depends on
            # its own block only: choose per nest, then assemble
            tiles: dict[str, int] = {}
            per_nest = []
            for nest in prog.nests:
                pick = None
                for blk in space.tile_candidates(
                    nest.name, max(1, plan(nest, plan_budget).tile_size)
                ):
                    c = nest_config_cost(
                        plan(nest, plan_budget, blk), layouts=layouts,
                        cache_budget=cache_budget, cb_nodes=cb,
                        warm=warm[nest.name], **pricing,
                    )
                    if better(c, pick):
                        pick, tiles[nest.name] = c, blk
                per_nest.append(pick)
            cost = ConfigCost(tuple(per_nest))
            if better(cost, best and best[0]):
                best = (cost, cache_budget, cb, tiles)
    assert best is not None
    cost, cache_budget, cb, tiles = best
    total_s = cost.total_s

    # -- per-knob provenance: cost of reverting each knob --------------
    def revert(
        layouts=layouts, cache=cache_budget, cb_nodes=cb, tile_sizes=tiles
    ) -> float:
        """Modeled seconds added by putting the given knobs of the
        chosen configuration back to their defaults."""
        return config_cost(
            prog,
            {
                nest.name: plan(nest, budget - cache, tile_sizes.get(nest.name))
                for nest in prog.nests
            },
            layouts=layouts, cache_budget=cache, cb_nodes=cb_nodes,
            **pricing,
        ).total_s - total_s

    knobs = [
        KnobChoice(
            "layouts",
            {a: list(d) for a, d in sorted(gd.directions.items())},
            ("ilp", "row-major"),
            total_s,
            revert(layouts={a.name: row_major(a.rank) for a in prog.arrays}),
        ),
        KnobChoice(
            "tile_sizes", dict(sorted(tiles.items())),
            tuple(space.tile_fractions), total_s,
            revert(tile_sizes={}),
        ),
        KnobChoice(
            "cache_budget", cache_budget, tuple(cache_cands), total_s,
            revert(cache=0),
        ),
        KnobChoice(
            "cb_nodes", cb, cb_cands, total_s,
            revert(cb_nodes=None),
        ),
    ]

    report = list(gd.report) + [
        ReportEvent(
            "autotune",
            f"joint config: cache={cache_budget} cb={cb} "
            f"tiles={tiles} predicted={total_s:.4f}s",
            {
                "cache_budget": cache_budget,
                "cb_nodes": cb,
                "tile_sizes": dict(tiles),
                "predicted_cost_s": total_s,
            },
        ),
    ] + [
        ReportEvent(
            "knob",
            f"{k.knob}: {k.chosen} (revert costs {k.delta_s:+.4f}s)",
            k.to_dict(),
        )
        for k in knobs
    ]

    return TuneDecision(
        decision=gd,
        solver=used,
        objective=objective,
        tile_sizes=tiles,
        cache_budget=cache_budget,
        cache_policy=space.cache_policy,
        cb_nodes=cb,
        n_nodes=n_nodes,
        memory_budget=budget,
        predicted=cost,
        knobs=knobs,
        report=report,
        edges=edges,
    )


__all__ = ["KnobChoice", "TuneDecision", "solve_joint"]
