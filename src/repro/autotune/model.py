"""Machine-level cost model for joint knob evaluation.

The layout/loop stage of the search reuses the paper's per-reference
call model verbatim (:mod:`repro.optimizer.cost`); that model ranks
layout × loop-order choices but knows nothing about tiles, caches or
aggregators.  This module extends it to a *configuration* cost in
seconds, so the remaining knobs can be priced against each other:

- **tiles**: each tile visit bounding-box-reads every touched array
  (and writes back the written ones) exactly like the executor, so a
  block size ``B`` turns into ``n_tiles(B)`` fetches of the per-tile
  footprint; run lengths follow the array's fast direction and are
  split at ``max_request_elements``, mirroring ``plan_runs``;
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
from ..layout import temporal_locality_ok
from ..optimizer.cost import access_is_spatial
from ..runtime import MachineParams
from ..runtime.ooc_array import region_size
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


def _fast_axis(direction: Sequence[int] | None, rank: int) -> int | None:
    """The array axis consecutive file elements walk, if the fast
    direction is axis-aligned (row-major default: the last axis)."""
    if direction is None:
        return rank - 1
    nz = [i for i, v in enumerate(direction) if v]
    if len(nz) == 1 and abs(direction[nz[0]]) == 1:
        return nz[0]
    return None


def _tile_calls(
    region: tuple[tuple[int, int], ...],
    direction: Sequence[int] | None,
    cap: int,
) -> float:
    """File runs needed for one bounding-box region: one run per line
    along the fast axis, each split at the request cap (the analytic
    mirror of ``runs_of`` + ``plan_runs`` on the actual addresses)."""
    fp = region_size(region)
    if fp <= 0:
        return 0.0
    axis = _fast_axis(direction, len(region))
    if axis is None:
        run_len = 1
    else:
        lo, hi = region[axis]
        run_len = max(1, hi - lo + 1)
    lines = fp / run_len
    return lines * math.ceil(run_len / max(1, cap))


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
    directions: Mapping[str, Sequence[int] | None],
    n_nodes: int,
    cache_budget: int,
    cb_nodes: int | None,
    warm: bool,
) -> NestConfigCost:
    """Modeled per-node seconds for one planned nest under the given
    knobs.  ``warm`` carries the cross-nest state (:func:`warm_nests`):
    every array the nest touches was already loaded by an earlier nest
    of the same configuration, so its first repetition gets the
    cache-retention discount too.
    """
    nest = plan.nest
    p = max(1, n_nodes)
    cap = max(1, params.max_request_elements)
    # the tile count and the representative (middle-anchor) tile are the
    # plan's own geometry for rank 0; the count is the window product,
    # so windows a triangular nest leaves empty are priced as tiles
    space = TileSpace(plan, binding, shapes, (0, p))
    n_tiles = len(space)
    fps = space.footprints(tile_box(space.full, space.blocks, 0.5))
    whole = space.footprints(space.full)
    w = max(1, nest.weight)

    # per-repetition per-node tile traffic
    read_calls = write_calls = 0.0
    elements = 0.0
    node_data = 0
    for name, (region, _is_read, is_write) in fps.items():
        d = directions.get(name)
        calls = _tile_calls(region, d, cap) * n_tiles
        fp = region_size(region) * n_tiles
        read_calls += calls  # read-modify-write: every touched array
        elements += fp
        if is_write:
            write_calls += calls
            elements += fp
        node_data += region_size(whole[name][0]) // p

    # cache retention: rho of this nest's per-node data survives to the
    # next touch; repetitions 2..w (and a first touch of an array some
    # earlier nest already loaded) re-read only the (1 - rho) remainder
    rho = 0.0
    if cache_budget > 0 and node_data > 0:
        rho = min(1.0, cache_budget / node_data)
    warm_reps = (w - 1) + (1 if warm else 0)
    cold_reps = w - warm_reps
    eff_read_calls = read_calls * (cold_reps + warm_reps * (1.0 - rho))
    read_elems = sum(
        region_size(r) * n_tiles for r, _, _ in fps.values()
    )
    write_elems = elements - read_elems
    eff_read_elems = read_elems * (cold_reps + warm_reps * (1.0 - rho))
    total_calls = eff_read_calls + write_calls * w
    total_elems = eff_read_elems + write_elems * w

    esz = params.element_size
    io_s = total_calls * params.io_latency_s \
        + total_elems * esz / params.io_bandwidth_bps
    net_s = 0.0
    two_phase = False

    # two-phase collective: worthwhile only when some read reference is
    # neither temporal nor spatial under the chosen layout
    if cb_nodes is not None:
        q_last = (0,) * (nest.depth - 1) + (1,)
        non_conforming = False
        for _, ref, is_wr in nest.refs():
            if is_wr or ref.rank < 2:
                continue
            l = nest.access_matrix(ref)
            if temporal_locality_ok(l, q_last):
                continue
            if not access_is_spatial(
                l, q_last, directions.get(ref.array.name)
            ):
                non_conforming = True
                break
        if non_conforming:
            k = max(1, min(cb_nodes, p))
            d_total = sum(
                region_size(whole[name][0]) for name in whole
            )
            agg_calls = sum(
                math.ceil(region_size(whole[name][0]) / cap)
                for name in whole
            )
            fan = max(1, min(k, params.n_io_nodes))
            t_read = (
                agg_calls * params.io_latency_s
                + d_total * esz / params.io_bandwidth_bps
            ) / fan
            t_net = (p * k) * params.net_latency_s \
                + d_total * esz / params.net_bandwidth_bps
            t_2p = (t_read + t_net) * w
            t_indep = eff_read_calls * params.io_latency_s \
                + eff_read_elems * esz / params.io_bandwidth_bps
            if t_2p < t_indep:
                two_phase = True
                io_s = io_s - t_indep + t_read * w
                net_s = t_net * w
                total_calls = total_calls - eff_read_calls + agg_calls * w

    iters = max(1, nest.estimated_iterations(binding))
    compute_s = w * (iters / p) * params.compute_per_element_s

    return NestConfigCost(
        nest=nest.name,
        tile_size=plan.tile_size,
        n_tiles=n_tiles,
        read_calls=eff_read_calls,
        write_calls=write_calls * w,
        elements=total_elems,
        io_s=io_s,
        net_s=net_s,
        compute_s=compute_s,
        two_phase=two_phase,
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
    directions: Mapping[str, Sequence[int] | None],
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
            directions=directions,
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
    "warm_nests",
]
