"""Machine-level cost model for joint knob evaluation.

The layout/loop stage of the search reuses the paper's per-reference
call model verbatim (:mod:`repro.optimizer.cost`); that model ranks
layout × loop-order choices but knows nothing about tiles, caches or
aggregators.  This module extends it to a *configuration* cost in
seconds, so the remaining knobs can be priced against each other:

- **tiles**: each tile visit bounding-box-reads every touched array
  (and writes back the written ones) exactly like the executor, so a
  block size ``B`` turns into ``n_tiles(B)`` transfers of the
  representative tile, and a transfer is priced by the runtime's own
  decomposition — the layout's ``AddressMap.runs`` of the tile's box,
  sieved and split by ``plan_runs``, timed by ``batch_time``;
- **cache**: a budget carved from the memory budget shrinks the
  planner's feasible blocks (more tiles) but retains a
  ``min(1, cache/data)`` fraction of a nest's per-node data, saving
  that fraction of the re-reads on later repetitions of the nest and
  on later nests touching the same array — the coupling that makes
  the choice a genuine trade-off;
- **collective**: a nest left with non-conforming (neither temporal
  nor spatial) read references can route reads through ``k``
  aggregators that read each array contiguously and redistribute over
  the interconnect (the PASSION two-phase trade priced with
  ``net_latency_s``/``net_bandwidth_bps``); the model takes the
  cheaper of independent and two-phase per nest, like the runtime's
  ``mode="auto"`` planner.

Costs are per compute node (the SPMD slab split divides the outer tile
loop by ``n_nodes``), in modeled seconds under a given
:class:`~repro.runtime.MachineParams` — which is exactly what the
calibrator refits, closing the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..dependence import DependenceEdge
from ..engine.plan import NestPlan, TileSpace, plan_nest, tile_box
from ..ir.nest import LoopNest
from ..ir.program import Program
from ..layout import Layout
from ..optimizer.cost import access_is_spatial, layout_directions
from ..runtime import MachineParams
from ..runtime.ooc_array import Region, region_size
from ..runtime.stats import plan_runs
from ..transforms.tiling import ooc_tiling


@dataclass(frozen=True)
class NestConfigCost:
    """Modeled per-node cost of one nest under a configuration."""

    nest: str
    tile_size: int
    n_tiles: int
    read_calls: float
    write_calls: float
    elements: float
    io_s: float
    net_s: float
    compute_s: float
    two_phase: bool

    @property
    def total_s(self) -> float:
        return self.io_s + self.net_s + self.compute_s


@dataclass(frozen=True)
class ConfigCost:
    """Modeled per-node cost of a whole program configuration."""

    per_nest: tuple[NestConfigCost, ...]

    @property
    def io_s(self) -> float:
        return sum(n.io_s for n in self.per_nest)

    @property
    def net_s(self) -> float:
        return sum(n.net_s for n in self.per_nest)

    @property
    def compute_s(self) -> float:
        return sum(n.compute_s for n in self.per_nest)

    @property
    def total_s(self) -> float:
        return sum(n.total_s for n in self.per_nest)


def tile_io(
    params: MachineParams, layout: Layout, shape: Sequence[int], region: Region
) -> tuple[int, int]:
    """``(calls, elements)`` of moving ``region`` of an array stored
    under ``layout`` once: the region's contiguous file runs, sieved and
    split at the request cap — the arithmetic a run is charged with."""
    _, lengths = plan_runs(params, *layout.address_map(shape).runs(region))
    return lengths.size, int(lengths.sum())


def plan_for(
    nest: LoopNest,
    binding: Mapping[str, int],
    shapes: Mapping[str, tuple[int, ...]],
    plan_budget: int,
    tile_size: int | None = None,
    edges: list[DependenceEdge] | None = None,
) -> NestPlan:
    """The plan the executor would build: same spec rule, same budget,
    same forced-block clamping.  ``edges`` are the nest's dependences
    when the caller has them — a search prices many budgets and tile
    sizes of one nest, whose edges never change."""
    return plan_nest(
        nest, ooc_tiling(nest), plan_budget, binding, shapes,
        edges=edges, force_block=tile_size,
    )


def nest_config_cost(
    plan: NestPlan,
    *,
    binding: Mapping[str, int],
    shapes: Mapping[str, tuple[int, ...]],
    params: MachineParams,
    layouts: Mapping[str, Layout],
    n_nodes: int,
    cache_budget: int,
    cb_nodes: int | None,
    warm: bool,
) -> NestConfigCost:
    """Modeled per-node seconds for one planned nest under the given
    knobs.  ``layouts`` are the file layouts the run would execute (one
    per array, as ``TuneDecision.layout_objects()`` builds them).
    ``warm`` carries the cross-nest state (:func:`warm_nests`): every
    array the nest touches was already loaded by an earlier nest of the
    same configuration, so its first repetition gets the
    cache-retention discount too.

    Computed exactly: the tile geometry, each array's runs, sieve and
    request-cap split, their seconds, the compute charge.  Modeled: one
    representative tile stands for all ``n_tiles``, ``n_tiles`` counts
    windows a triangular nest leaves empty, the cache credit ``rho``,
    and the two-phase term.
    """
    nest = plan.nest
    p = max(1, n_nodes)
    # the tile count and the representative (middle-anchor) tile are the
    # plan's own geometry for rank 0; the count is the window product,
    # so windows a triangular nest leaves empty are priced as tiles
    space = TileSpace(plan, binding, shapes, (0, p))
    n_tiles = len(space)
    fps = space.footprints(tile_box(space.full, space.blocks, 0.5))
    whole = [
        region_size(region)
        for region, _, _ in space.footprints(space.full).values()
    ]
    w = max(1, nest.weight)

    # one repetition's tile traffic on this node: every touched array is
    # read (read-modify-write of the bounding box), the written ones go
    # back through the same runs
    read_calls = read_elems = write_calls = write_elems = 0
    for name, (region, _is_read, is_write) in fps.items():
        calls, elems = tile_io(params, layouts[name], shapes[name], region)
        read_calls += calls * n_tiles
        read_elems += elems * n_tiles
        if is_write:
            write_calls += calls * n_tiles
            write_elems += elems * n_tiles

    # cache retention: rho of this nest's per-node data survives to the
    # next touch; repetitions 2..w (and a first touch of an array some
    # earlier nest already loaded) re-read only the (1 - rho) remainder
    node_data = sum(size // p for size in whole)
    rho = 0.0
    if cache_budget > 0 and node_data > 0:
        rho = min(1.0, cache_budget / node_data)
    warm_reps = (w - 1) + (1 if warm else 0)
    paid_reps = (w - warm_reps) + warm_reps * (1.0 - rho)
    read_calls, read_elems = read_calls * paid_reps, read_elems * paid_reps
    write_calls, write_elems = write_calls * w, write_elems * w
    t_reads = params.batch_time(read_calls, read_elems)
    net_s = 0.0
    two_phase = False

    # two-phase collective: worthwhile only when some read reference is
    # neither temporal nor spatial under the chosen layout
    if cb_nodes is not None and _non_conforming_read(nest, layouts):
        k = max(1, min(cb_nodes, p))
        cap = max(1, params.max_request_elements)
        data = sum(whole)
        t_agg = params.batch_time(
            sum(math.ceil(size / cap) for size in whole), data
        ) / max(1, min(k, params.n_io_nodes))
        t_net = (p * k) * params.net_latency_s \
            + data * params.element_size / params.net_bandwidth_bps
        if (t_agg + t_net) * w < t_reads:
            two_phase = True
            t_reads = t_agg * w
            net_s = t_net * w

    iters = max(1, nest.estimated_iterations(binding))
    return NestConfigCost(
        nest=nest.name,
        tile_size=plan.tile_size,
        n_tiles=n_tiles,
        read_calls=read_calls,
        write_calls=write_calls,
        elements=read_elems + write_elems,
        io_s=t_reads + params.batch_time(write_calls, write_elems),
        net_s=net_s,
        compute_s=params.compute_time(w * (iters / p), len(nest.body)),
        two_phase=two_phase,
    )


def _non_conforming_read(nest: LoopNest, layouts: Mapping[str, Layout]) -> bool:
    """Does the innermost loop walk some read reference neither
    temporally nor along its array's file-fastest direction?"""
    directions = layout_directions(layouts)
    q_last = (0,) * (nest.depth - 1) + (1,)
    return any(
        not is_write and ref.rank >= 2 and not access_is_spatial(
            nest.access_matrix(ref), q_last, directions[ref.array.name]
        )
        for _, ref, is_write in nest.refs()
    )


def warm_nests(program: Program) -> dict[str, bool]:
    """Per nest name: did earlier nests of the program already touch
    every array this one does?  A property of the program alone, so a
    search computes it once."""
    seen: set[str] = set()
    warm: dict[str, bool] = {}
    for nest in program.nests:
        arrays = {ref.array.name for _, ref, _ in nest.refs()}
        warm[nest.name] = arrays <= seen
        seen |= arrays
    return warm


def config_cost(
    program: Program,
    plans: Mapping[str, NestPlan],
    *,
    binding: Mapping[str, int],
    shapes: Mapping[str, tuple[int, ...]],
    params: MachineParams,
    layouts: Mapping[str, Layout],
    n_nodes: int,
    cache_budget: int = 0,
    cb_nodes: int | None = None,
) -> ConfigCost:
    """Modeled per-node seconds for the whole program configuration:
    the fold of :func:`nest_config_cost` over ``plans``, one
    :class:`NestPlan` per nest name (built by the caller — from
    :func:`plan_for`, or the run's own ``plan_program``)."""
    warm = warm_nests(program)
    return ConfigCost(tuple(
        nest_config_cost(
            plans[nest.name],
            binding=binding,
            shapes=shapes,
            params=params,
            layouts=layouts,
            n_nodes=n_nodes,
            cache_budget=cache_budget,
            cb_nodes=cb_nodes,
            warm=warm[nest.name],
        )
        for nest in program.nests
    ))


__all__ = [
    "ConfigCost",
    "NestConfigCost",
    "config_cost",
    "nest_config_cost",
    "plan_for",
    "tile_io",
    "warm_nests",
]
