"""Tile planning: pick tile sizes fitting the memory budget, legally.

A plan strip-mines the levels marked by the :class:`TilingSpec` (the
tile loops stay in their original relative order, outermost), so tiling
is legal iff the tiled band is *fully permutable* — no dependence with a
negative component at a tiled level.  When the requested spec is illegal
the planner degrades to outermost-only strip-mining, which never changes
execution order.

Tile sizes: one block size ``B`` shared by all tiled levels, maximized by
binary search so the nest's total footprint (every accessed array's tile,
simultaneously resident, as in the paper's even split of memory across a
nest's arrays) fits the per-node budget.

How a planned nest is then cut into tiles — per-rank slab, block
windows, walk order, the representative anchor boxes — is stated once,
here, as :func:`tile_box` and :class:`TileSpace`; the executor's walk,
the planner's own probe, the autotune model and h-opt's chunk sizing
all read it from there.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping

import numpy as np

from ..dependence import DependenceEdge, Direction, analyze_nest
from ..ir.nest import LoopNest
from ..ir.program import Program
from ..obs import profile as _prof
from ..runtime.ooc_array import Region, region_size
from ..transforms.tiling import TilingSpec
from .footprint import VarRanges, nest_footprints


def tiling_band_legal(
    edges: list[DependenceEdge], spec: TilingSpec
) -> bool:
    """Full-permutability check restricted to the tiled levels."""
    tiled_levels = [i for i, t in enumerate(spec.tiled) if t]
    for e in edges:
        for d in e.distances:
            if any(d[l] < 0 for l in tiled_levels):
                return False
        if not e.exact:
            for dirs in e.directions:
                if any(dirs[l] is Direction.GT for l in tiled_levels):
                    return False
    return True


@dataclass(frozen=True)
class NestPlan:
    nest: LoopNest
    spec: TilingSpec
    tile_size: int
    footprint_elements: int
    degraded: bool = False
    over_budget: bool = False

    @property
    def tiled_levels(self) -> tuple[int, ...]:
        return tuple(i for i, t in enumerate(self.spec.tiled) if t)

    def describe(self) -> str:
        flag = " (degraded to outer-only)" if self.degraded else ""
        return (
            f"{self.nest.name}: tiling {self.spec.describe()} "
            f"B={self.tile_size} footprint={self.footprint_elements}{flag}"
        )


def _whole_ranges(nest: LoopNest, binding: Mapping[str, int]) -> dict[str, tuple[int, int]]:
    """Over-approximate each loop's full range (outer vars at extremes)."""
    ranges: dict[str, tuple[int, int]] = {}
    env_lo: dict[str, int] = dict(binding)
    env_hi: dict[str, int] = dict(binding)
    for loop in nest.loops:
        lo1 = min(b.eval_lower(env_lo) for b in loop.lowers)
        lo2 = min(b.eval_lower(env_hi) for b in loop.lowers)
        hi1 = max(b.eval_upper(env_lo) for b in loop.uppers)
        hi2 = max(b.eval_upper(env_hi) for b in loop.uppers)
        lo, hi = min(lo1, lo2), max(hi1, hi2)
        ranges[loop.var] = (lo, hi)
        env_lo[loop.var] = lo
        env_hi[loop.var] = hi
    return ranges


def program_edges(
    program: Program,
    known: Mapping[str, list[DependenceEdge]] | None = None,
) -> dict[str, list[DependenceEdge]]:
    """Dependence edges per nest name, analysing only the nests ``known``
    lacks.  The result travels with whoever built it (a
    ``VersionConfig``, a ``solve_joint`` call, an executor) into every
    ``plan_nest(edges=...)`` of that run, so a nest is analysed once."""
    known = known or {}
    return {
        nest.name: known[nest.name] if nest.name in known
        else analyze_nest(nest)
        for nest in program.nests
    }


def tile_box(
    full: VarRanges, blocks: Mapping[str, int], frac: float
) -> dict[str, tuple[int, int]]:
    """The variable box of a representative tile: each variable in
    ``blocks`` (the tiled ones) clipped to its block size, anchored
    ``frac`` of the way through its whole range (0 start, 0.5 middle,
    1 end); every other variable spans its whole range ``full``."""
    box: dict[str, tuple[int, int]] = {}
    for var, (lo, hi) in full.items():
        block = blocks.get(var)
        if block is not None:
            lo += int(frac * max(0, hi - lo + 1 - block))
            hi = min(hi, lo + block - 1)
        box[var] = (lo, hi)
    return box


def _footprint_for_block(
    nest: LoopNest,
    binding: Mapping[str, int],
    shapes: Mapping[str, tuple[int, ...]],
    spec: TilingSpec,
    block: int,
    full: Mapping[str, tuple[int, int]],
) -> int:
    """Worst-case resident elements if every tiled level is clipped to
    ``block`` iterations; ``full`` is ``_whole_ranges(nest, binding)``.

    With affine (e.g. triangular) bounds the untiled levels' ranges vary
    with the tile anchor, so the :func:`tile_box` is evaluated at the
    start, middle and end anchors and the maximum footprint taken.
    """
    blocks = {
        loop.var: block for loop, tiled in zip(nest.loops, spec.tiled) if tiled
    }
    return max(
        sum(
            region_size(region)
            for region, _, _ in nest_footprints(
                nest, tile_box(full, blocks, frac), binding, shapes
            ).values()
        )
        for frac in (0.0, 0.5, 1.0)
    )


def plan_nest(
    nest: LoopNest,
    spec: TilingSpec,
    memory_budget: int,
    binding: Mapping[str, int],
    shapes: Mapping[str, tuple[int, ...]],
    *,
    edges: list[DependenceEdge] | None = None,
    force_block: int | None = None,
) -> NestPlan:
    """Choose a legal tiling and the largest block size fitting memory.

    The plan depends on nothing but these arguments — in particular not
    on the SPMD rank — so a run builds it once and every rank shares it.
    ``edges`` are the nest's dependences when the caller already has
    them (:func:`program_edges`); otherwise they are analysed here, and
    only if the spec tiles anything.

    ``force_block`` caps the block size at a caller-chosen value (the
    autotuner's tile-size knob).  The cap can only shrink the block the
    binary search would pick, so a forced plan is never less
    memory-safe than the default one.
    """
    if force_block is not None and force_block < 1:
        raise ValueError(f"force_block must be >= 1, got {force_block}")
    if spec.depth != nest.depth:
        raise ValueError(
            f"nest {nest.name!r} has depth {nest.depth} but its tiling "
            f"spec {spec.describe()!r} has {spec.depth} levels"
        )
    _prof.WORK.plan_nest_calls += 1
    full = _whole_ranges(nest, binding)

    def footprint(spec: TilingSpec, block: int) -> int:
        return _footprint_for_block(nest, binding, shapes, spec, block, full)

    def best_block(spec: TilingSpec) -> tuple[int, int]:
        """The largest block fitting the budget (capped at
        ``force_block``; 1 if none fits) and its footprint."""
        max_block = max(
            hi - lo + 1
            for level, loop in enumerate(nest.loops)
            if spec.tiled[level]
            for lo, hi in [full[loop.var]]
        )
        lo_b, hi_b = 1, max(1, max_block)
        if footprint(spec, hi_b) <= memory_budget:
            best = hi_b
        else:
            best = 1
            while lo_b <= hi_b:
                mid = (lo_b + hi_b) // 2
                if footprint(spec, mid) <= memory_budget:
                    best = mid
                    lo_b = mid + 1
                else:
                    hi_b = mid - 1
        if force_block is not None:
            best = min(best, force_block)
        return best, footprint(spec, best)

    degraded = False
    if spec.any_tiled:
        if edges is None:
            edges = analyze_nest(nest)
        if not tiling_band_legal(edges, spec):
            spec = TilingSpec((True,) + (False,) * (nest.depth - 1))
            degraded = True

    if not spec.any_tiled:
        fp = footprint(spec, 1)
        return NestPlan(
            nest, spec, 0, fp, degraded, over_budget=fp > memory_budget
        )

    best, fp = best_block(spec)
    if fp > memory_budget:
        # Even B=1 does not fit: the untiled inner levels span too much
        # data.  Try tiling every level (when legal); otherwise run over
        # budget and say so — the real constraint the paper's Section 3.3
        # navigates.
        all_spec = TilingSpec((True,) * nest.depth)
        if spec.tiled != all_spec.tiled and tiling_band_legal(edges, all_spec):
            spec, degraded = all_spec, False
            best, fp = best_block(spec)
    return NestPlan(
        nest, spec, best, fp, degraded, over_budget=fp > memory_budget
    )


class TileSpace:
    """How one rank cuts a planned nest into tiles — the one statement
    of the out-of-core tile walk's geometry.

    Every tiled level is cut into windows of ``plan.tile_size``
    iterations over its whole range; the outermost tiled level is first
    block-distributed over the SPMD ranks (``node_slice=(rank,
    n_nodes)``: rank ``r`` owns a contiguous slab, no inter-node
    communication — the paper's parallelization), and an untiled nest
    runs on rank 0 only.  The walk is the product of the levels'
    windows, outermost slowest.

    ``len(space)`` is that window product — what a count-based model
    multiplies by.  Iterating yields ``(windows, var_ranges,
    footprints)`` for the *non-empty* tiles only, in walk order: under
    triangular or coupled bounds some windows of the product hold no
    iteration (or touch no array element) and are dropped, so
    ``len(list(space)) <= len(space)``, equal on rectangular nests.

    ``full`` is each variable's whole range, ``windows`` maps each tiled
    variable, outermost first, to its ``(starts, stops)`` integer arrays
    after the rank's slab.  Only the slab depends on the rank:
    :meth:`on` gives another rank's space off the same ``full``.
    """

    def __init__(
        self,
        plan: NestPlan,
        binding: Mapping[str, int],
        shapes: Mapping[str, tuple[int, ...]],
        node_slice: tuple[int, int] | None = None,
    ):
        self.plan = plan
        self.binding = binding
        self.shapes = shapes
        self.full = _whole_ranges(plan.nest, binding)
        self.block = max(1, plan.tile_size)
        #: the range of each loop whose bounds hold parameters only
        self._fixed = {
            loop.var: loop.eval_range(binding) for loop in plan.nest.loops
            if all(b.expr.uses_only(binding) for b in loop.lowers + loop.uppers)
        }
        self._cut(node_slice)

    def on(self, node_slice: tuple[int, int] | None) -> "TileSpace":
        """This space as rank ``node_slice`` cuts it."""
        other = copy(self)
        other._cut(node_slice)
        return other

    def _cut(self, node_slice: tuple[int, int] | None) -> None:
        nest = self.plan.nest
        self.windows: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for level in self.plan.tiled_levels:
            var = nest.loops[level].var
            lo, hi = self.full[var]
            if not self.windows and node_slice is not None:
                rank, n_nodes = node_slice
                share = -(-(hi - lo + 1) // n_nodes)
                lo, hi = lo + rank * share, min(hi, lo + (rank + 1) * share - 1)
            starts = np.arange(lo, hi + 1, self.block)
            self.windows[var] = (
                starts, np.minimum(hi, starts + self.block - 1)
            )
        idle = not self.windows and node_slice is not None and node_slice[0] != 0
        self._count = 0 if idle else math.prod(
            len(starts) for starts, _ in self.windows.values()
        )

    def __len__(self) -> int:
        return self._count

    @property
    def blocks(self) -> dict[str, int]:
        """Block size per tiled variable — :func:`tile_box`'s input."""
        return dict.fromkeys(self.windows, self.block)

    def footprints(
        self, var_ranges: VarRanges
    ) -> dict[str, tuple[Region, bool, bool]]:
        """Per-array ``(region, is_read, is_written)`` the nest touches
        over a variable box (a tile's, a :func:`tile_box`, or ``full``)."""
        return nest_footprints(
            self.plan.nest, var_ranges, self.binding, self.shapes
        )

    def _refine(self, windows: VarRanges) -> dict[str, tuple[int, int]] | None:
        """One tile's per-variable ranges: the loop bounds evaluated at
        the corners of the enclosing variables' ranges, clipped to the
        tile's windows (``None`` if some range is empty)."""
        ranges: dict[str, tuple[int, int]] = {}
        for loop in self.plan.nest.loops:
            if loop.var in self._fixed:
                lo, hi = self._fixed[loop.var]
            else:
                corners = [dict(self.binding)]
                for var, ends in ranges.items():  # bounded corner expansion
                    corners = [
                        {**env, var: val} for env in corners for val in set(ends)
                    ][:16]
                los, his = zip(*(loop.eval_range(env) for env in corners))
                lo, hi = min(los), max(his)
            if loop.var in windows:
                wlo, whi = windows[loop.var]
                lo, hi = max(lo, wlo), min(hi, whi)
            if lo > hi:
                return None
            ranges[loop.var] = (lo, hi)
        return ranges

    def __iter__(
        self,
    ) -> Iterator[
        tuple[VarRanges, VarRanges, dict[str, tuple[Region, bool, bool]]]
    ]:
        if not self._count:
            return
        per_level = [
            [(var, w) for w in zip(starts.tolist(), stops.tolist())]
            for var, (starts, stops) in self.windows.items()
        ]
        for combo in product(*per_level):
            windows = dict(combo)
            var_ranges = self._refine(windows)
            if var_ranges is None:
                continue
            fps = {
                name: fp
                for name, fp in self.footprints(var_ranges).items()
                if region_size(fp[0]) > 0
            }
            if fps:
                yield windows, var_ranges, fps
