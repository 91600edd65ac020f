"""Source-level code generation for the tiled out-of-core program.

Produces the paper's target form (Section 3.3's listings): tile loops
outside, PASSION-style tile read calls, element loops inside, write-back
of modified tiles — annotated with the chosen file layout per array.
The element loops are printed as :class:`OOCExecutor` runs them: the
sequential levels as ``do`` loops, the levels of
:func:`~repro.engine.interpreter.bulk_levels` as one ``forall``.  The
output is Fortran-flavored pseudocode meant for humans (and for the
paper's listings).
"""

from __future__ import annotations

from typing import Mapping

from ..ir.nest import LoopNest
from ..ir.program import Program
from ..layout import Layout
from ..transforms.tiling import TilingSpec, ooc_tiling
from .interpreter import bulk_levels
from .plan import NestPlan, program_edges


def generate_nest_code(
    nest: LoopNest,
    spec: TilingSpec,
    layouts: Mapping[str, Layout],
    tile_size_name: str = "B",
    edges=None,
) -> str:
    """One nest's listing; ``edges`` are its known dependence edges
    (analysed here otherwise), which decide the ``forall`` levels."""
    lines: list[str] = []
    indent = 0

    def emit(text: str) -> None:
        lines.append("  " * indent + text)

    reads = sorted(nest.arrays())
    writes = sorted({s.lhs.array.name for s in nest.body})

    tiled = [i for i, t in enumerate(spec.tiled) if t]
    # tile loops
    for level in tiled:
        loop = nest.loops[level]
        lo, hi = loop._bounds_str()
        emit(f"do {loop.var.upper()}T = {lo}, {hi}, {tile_size_name}")
        indent += 1
    emit(f"call passion_read_tiles({', '.join(reads)})   ! one data tile each")

    def element_range(level: int, sep: str) -> str:
        loop = nest.loops[level]
        lo, hi = loop._bounds_str()
        if level in tiled:
            t = f"{loop.var.upper()}T"
            lo, hi = f"max({lo}, {t})", f"min({hi}, {t}+{tile_size_name}-1)"
        return f"{loop.var} = {lo}{sep}{hi}"

    # element loops, as executed: sequential levels, then the bulk box
    bulk = bulk_levels(nest, edges)
    closers = []
    for level in range(nest.depth):
        if level not in bulk:
            emit(f"do {element_range(level, ', ')}")
            closers.append("end do")
            indent += 1
    if bulk:
        emit(f"forall ({', '.join(element_range(b, ':') for b in bulk)})")
        closers.append("end forall")
        indent += 1
    for stmt in nest.body:
        emit(str(stmt))
    for closer in reversed(closers):
        indent -= 1
        emit(closer)
    emit(f"call passion_write_tiles({', '.join(writes)})")
    for _ in tiled:
        indent -= 1
        emit("end do")
    return "\n".join(lines)


def generate_tiled_code(
    program: Program,
    layouts: Mapping[str, Layout],
    specs: Mapping[str, TilingSpec] | None = None,
    plans: Mapping[str, NestPlan] | None = None,
    obs=None,
) -> str:
    """Full-program listing with layout declarations per array.

    ``obs`` (a :class:`repro.obs.Observability`) wraps the emission in a
    ``codegen`` span; ``None`` records nothing.
    """
    span = (
        obs.tracer.begin("codegen", "compile", program=program.name)
        if obs is not None
        else None
    )
    edges = program_edges(program)
    parts = [f"! out-of-core code for program {program.name}"]
    for a in program.arrays:
        lay = layouts.get(a.name)
        desc = lay.describe() if lay is not None else "row-major (default)"
        parts.append(f"! file layout of {a.name}: {desc}")
    for nest in program.nests:
        if plans and nest.name in plans:
            spec = plans[nest.name].spec
            b = plans[nest.name].tile_size
            parts.append(f"\n! nest {nest.name} (tile size B = {b})")
        else:
            spec = (specs or {}).get(nest.name) or ooc_tiling(nest)
            parts.append(f"\n! nest {nest.name}")
        parts.append(
            generate_nest_code(nest, spec, layouts, edges=edges[nest.name])
        )
    out = "\n".join(parts)
    if obs is not None:
        obs.tracer.end(span, n_lines=out.count("\n") + 1)
    return out
