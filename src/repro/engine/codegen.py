"""Source-level code generation for the tiled out-of-core program.

Produces the paper's target form (Section 3.3's listings): tile loops
outside, PASSION-style tile read calls, element loops inside, write-back
of modified tiles — annotated with the chosen file layout per array.
The output is Fortran-flavored pseudocode meant for humans (and for the
paper's listings); execution goes through :class:`OOCExecutor`.
"""

from __future__ import annotations

from typing import Mapping

from ..ir.nest import LoopNest
from ..ir.program import Program
from ..layout import Layout
from ..transforms.tiling import TilingSpec
from .plan import NestPlan


def _bounds_str(loop) -> tuple[str, str]:
    return loop._bounds_str()


def generate_nest_code(
    nest: LoopNest,
    spec: TilingSpec,
    layouts: Mapping[str, Layout],
    tile_size_name: str = "B",
) -> str:
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
        lo, hi = _bounds_str(loop)
        emit(f"do {loop.var.upper()}T = {lo}, {hi}, {tile_size_name}")
        indent += 1
    emit(f"call passion_read_tiles({', '.join(reads)})   ! one data tile each")
    # element loops
    for level, loop in enumerate(nest.loops):
        lo, hi = _bounds_str(loop)
        if level in tiled:
            t = f"{loop.var.upper()}T"
            emit(
                f"do {loop.var} = max({lo}, {t}), "
                f"min({hi}, {t}+{tile_size_name}-1)"
            )
        else:
            emit(f"do {loop.var} = {lo}, {hi}")
        indent += 1
    for stmt in nest.body:
        emit(str(stmt))
    for _ in nest.loops:
        indent -= 1
        emit("end do")
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
    from ..transforms.tiling import ooc_tiling

    span = (
        obs.tracer.begin("codegen", "compile", program=program.name)
        if obs is not None
        else None
    )
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
        parts.append(generate_nest_code(nest, spec, layouts))
    out = "\n".join(parts)
    if obs is not None:
        obs.tracer.end(span, n_lines=out.count("\n") + 1)
    return out
