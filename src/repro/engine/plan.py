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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..dependence import DependenceEdge, Direction, analyze_nest
from ..ir.nest import LoopNest
from ..ir.program import Program
from ..obs import profile as _prof
from ..runtime.ooc_array import region_size
from ..transforms.tiling import TilingSpec
from .footprint import nest_footprints


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
    with the tile anchor, so the window is evaluated at the start, middle
    and end anchors and the maximum footprint taken.
    """
    worst = 0
    for frac in (0.0, 0.5, 1.0):
        var_ranges = {}
        for level, loop in enumerate(nest.loops):
            lo, hi = full[loop.var]
            if spec.tiled[level]:
                extent = hi - lo + 1
                anchor = lo + int(frac * max(0, extent - block))
                var_ranges[loop.var] = (anchor, min(hi, anchor + block - 1))
            else:
                var_ranges[loop.var] = (lo, hi)
        fps = nest_footprints(nest, var_ranges, binding, shapes)
        worst = max(
            worst, sum(region_size(region) for region, _, _ in fps.values())
        )
    return worst


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
