"""The six experimental versions of the paper's evaluation (Section 4).

- ``col`` / ``row`` — unoptimized: fixed column-/row-major layouts.
- ``l-opt`` — loop transformations only (the best of Li / McKinley /
  Wolf-Lam style nest optimization) against fixed column-major layouts.
- ``d-opt`` — file layout transformations only, no loop transformations.
- ``c-opt`` — the paper's integrated loop + layout algorithm, with the
  out-of-core tiling rule (all but the innermost loop).
- ``h-opt`` — hand-optimized: ``c-opt`` plus chunking (tile-blocked
  files) and interleaving (co-accessed arrays share one file).

For every version except ``c-opt``/``h-opt`` all loops carrying reuse
are tiled (traditional tiling), exactly as in the paper's methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from ..dependence import DependenceEdge
from ..engine.plan import TileSpace, plan_nest, program_edges, tile_box
from ..ir.nest import LoopNest
from ..ir.program import Program
from ..layout import Layout, col_major, row_major
from ..runtime import MachineParams
from ..runtime.chunked import InterleavedStoreSpec, LinearStoreSpec, StoreSpec
from ..runtime.params import check_n_nodes
from ..transforms import normalize_program, ooc_tiling
from ..transforms.tiling import TilingSpec
from .cost import nest_cost
from .global_opt import GlobalDecision, optimize_program

VERSION_NAMES = ("col", "row", "l-opt", "d-opt", "c-opt", "h-opt")


@dataclass
class VersionConfig:
    name: str
    program: Program
    layouts: dict[str, Layout]
    tiling: Callable[[LoopNest], TilingSpec]
    storage_spec: dict[str, StoreSpec] | None = None
    decision: GlobalDecision | None = None
    #: dependence edges of ``program``'s nests by nest name, analysed
    #: once when the version was built; every ``plan_nest`` of a run of
    #: this version takes them instead of analysing again (``None``:
    #: the planner analyses on demand)
    edges: dict[str, list[DependenceEdge]] | None = None

    def describe(self) -> str:
        lay = ", ".join(
            f"{n}:{l.describe()}" for n, l in sorted(self.layouts.items())
        )
        return f"version {self.name}: {lay}"


def _fixed_layouts(program: Program, kind: str) -> dict[str, Layout]:
    out: dict[str, Layout] = {}
    for a in program.arrays:
        if a.rank == 1:
            out[a.name] = row_major(1)
        else:
            out[a.name] = col_major(a.rank) if kind == "col" else row_major(a.rank)
    return out


def _col_directions(program: Program) -> dict[str, tuple[int, ...]]:
    """Fast directions of all-column-major storage (first index fastest)."""
    out = {}
    for a in program.arrays:
        if a.rank >= 2:
            out[a.name] = tuple(1 if d == 0 else 0 for d in range(a.rank))
    return out


def _effective_tile(extent: int, tile: int, n_nodes: int) -> int:
    """The tile size actually executed per SPMD node: the outermost tile
    loop is first sliced into ``n_nodes`` slabs, then tiled.  Chunk grids
    must align with every node's windows, so pick the largest divisor of
    the slab that does not exceed the planned tile."""
    if n_nodes <= 1:
        return max(1, min(tile, extent))
    share = -(-extent // n_nodes)
    if tile >= share:
        return max(1, share)
    for d in range(min(tile, share), 0, -1):
        if share % d == 0:
            return d
    return 1


def build_version(
    name: str,
    program: Program,
    *,
    binding: Mapping[str, int] | None = None,
    params: MachineParams | None = None,
    memory_budget: int | None = None,
    n_nodes: int = 1,
) -> VersionConfig:
    """Construct one of the paper's versions for the given program."""
    if name not in VERSION_NAMES:
        raise ValueError(f"unknown version {name!r}; pick from {VERSION_NAMES}")
    check_n_nodes(n_nodes)
    params = params or MachineParams()
    program = normalize_program(program)
    b = program.binding(binding)

    # Every version is executed with the out-of-core tiling rule (all but
    # the innermost loop): tiling policy itself is evaluated separately
    # (Figure 3 and the tiling ablation bench), so Table 2 isolates the
    # layout/loop-transformation effects.
    if name in ("col", "row"):
        return VersionConfig(
            name, program, _fixed_layouts(program, name), ooc_tiling,
            edges=program_edges(program),
        )

    if name == "l-opt":
        decision = optimize_program(
            program,
            binding=b,
            allow_loop=True,
            allow_data=False,
            initial_directions=_col_directions(program),
        )
        return VersionConfig(
            name,
            decision.program,
            _fixed_layouts(program, "col"),
            ooc_tiling,
            decision=decision,
            edges=program_edges(decision.program),
        )

    if name == "d-opt":
        decision = optimize_program(
            program, binding=b, allow_loop=False, allow_data=True
        )
        return VersionConfig(
            name,
            decision.program,
            decision.layout_objects(default="col"),
            ooc_tiling,
            decision=decision,
            edges=program_edges(decision.program),
        )

    # c-opt / h-opt share the integrated optimization
    decision = optimize_program(
        program, binding=b, allow_loop=True, allow_data=True
    )
    layouts = decision.layout_objects(default="col")
    # analysed once per final nest: h-opt's chunk sizing below and every
    # plan of a later run take the edges from here
    edges = program_edges(decision.program)
    if name == "c-opt":
        return VersionConfig(
            name, decision.program, layouts, ooc_tiling, decision=decision,
            edges=edges,
        )

    # h-opt: chunk each array into its data-tile shape and interleave the
    # arrays co-accessed by the costliest nest that touches them.
    shapes = {a.name: a.shape(b) for a in decision.program.arrays}
    budget = params.memory_budget(
        decision.program.total_elements(b), memory_budget
    )
    # Per nest: the start-anchor tile's footprint of each array it touches.
    per_nest_fp: dict[str, dict[str, tuple[tuple[int, int], ...]]] = {}
    for nest in decision.program.nests:
        plan = plan_nest(
            nest, ooc_tiling(nest), budget, b, shapes, edges=edges[nest.name]
        )
        space = TileSpace(plan, b, shapes)
        blocks = space.blocks
        outer = next(iter(blocks), None)
        if outer is not None:
            # the outermost tiled level is slabbed over the ranks first
            lo, hi = space.full[outer]
            blocks[outer] = _effective_tile(
                hi - lo + 1, plan.tile_size, n_nodes
            )
        fps = space.footprints(tile_box(space.full, blocks, 0.0))
        per_nest_fp[nest.name] = {
            arr: region for arr, (region, _, _) in fps.items()
        }

    def _block_of(region, shape):
        return tuple(
            min(hi - lo + 1, s) for (lo, hi), s in zip(region, shape)
        )

    # Chunk an array only when every nest that touches it tiles it the
    # same way — a chunk grid that fits one nest but not another forces
    # whole-chunk over-reads and loses to plain linear layouts (the hand
    # optimizer chunked selectively, too).
    owner_nest: dict[str, LoopNest] = {}
    for nest in sorted(
        decision.program.nests, key=lambda n: -nest_cost(n, b)
    ):
        for arr in nest.arrays():
            owner_nest.setdefault(arr, nest)
    storage_spec: dict[str, StoreSpec] = {}
    groups: dict[tuple, list[str]] = {}
    for a in decision.program.arrays:
        arr = a.name
        owner = owner_nest.get(arr)
        if owner is None or arr not in per_nest_fp.get(owner.name, {}):
            storage_spec[arr] = LinearStoreSpec(layouts[arr])
            continue
        region = per_nest_fp[owner.name][arr]
        block = _block_of(region, shapes[arr])
        origin = tuple(lo for lo, _ in region)
        consistent = all(
            arr not in fp
            or (
                _block_of(fp[arr], shapes[arr]) == block
                and tuple(lo for lo, _ in fp[arr]) == origin
            )
            for nest_name, fp in per_nest_fp.items()
            if nest_name != owner.name
        )
        if not consistent:
            storage_spec[arr] = LinearStoreSpec(layouts[arr])
            continue
        groups.setdefault(
            (owner.name, shapes[arr], block, origin), []
        ).append(arr)
    for (owner_name, shape, block, origin), arrs in groups.items():
        group_id = f"{owner_name}:{'x'.join(map(str, block))}"
        for arr in sorted(arrs):
            storage_spec[arr] = InterleavedStoreSpec(group_id, block, origin)
    return VersionConfig(
        name,
        decision.program,
        layouts,
        ooc_tiling,
        storage_spec=storage_spec,
        decision=decision,
        edges=edges,
    )
