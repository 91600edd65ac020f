"""Figure 3: tile access patterns — traditional vs. out-of-core tiling.

The paper's setting: 8x8 arrays, 32 elements of memory shared by the two
arrays of a nest, at most 8 elements per I/O call.  Traditional tiling
uses 4x4 tiles and needs **4** I/O calls to read a tile of the
column-major array V; the paper's tiling (all but the innermost loop)
uses 2x8 / 8x2 tiles and needs only **2** calls for the same amount of
memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import OOCExecutor
from ..ir import Program, ProgramBuilder
from ..layout import col_major, row_major
from ..runtime import (
    IOContext,
    MachineParams,
    OutOfCoreArray,
    ParallelFileSystem,
)
from ..transforms import ooc_tiling, traditional_tiling

#: the paper's machine for this figure: <=8 elements per call
FIGURE3_PARAMS = MachineParams(
    n_io_nodes=4,
    stripe_bytes=8 * 8,
    io_latency_s=1.0,
    io_bandwidth_bps=1e12,  # latency-dominated: time == #calls
    max_request_bytes=8 * 8,
)

MEMORY_ELEMENTS = 32
N = 8


@dataclass
class Figure3Result:
    calls_per_tile_traditional: int
    calls_per_tile_ooc: int
    total_calls_traditional: int
    total_calls_ooc: int


def _program() -> Program:
    """The first nest of the Section 3.1 fragment (0-based, 8x8)."""
    b = ProgramBuilder("figure3", params=("N",), default_binding={"N": N})
    Np = b.param("N")
    U = b.array("U", (Np, Np), one_based=False)
    V = b.array("V", (Np, Np), one_based=False)
    with b.nest("nest1") as nb:
        i = nb.loop("i", 0, Np - 1)
        j = nb.loop("j", 0, Np - 1)
        nb.assign(U[i, j], V[j, i] + 1.0)
    return b.build()


def render_tile_access(
    arr: OutOfCoreArray, region, params: MachineParams
) -> str:
    """ASCII version of the paper's Figure 3 diagrams: each accessed
    element shows the 1-based index of the I/O call fetching it; dots
    are untouched elements."""
    import numpy as np

    offsets, lengths = arr.runs(region)
    maxe = params.max_request_elements
    call_of_addr: dict[int, int] = {}
    call = 0
    for off, ln in zip(offsets.tolist(), lengths.tolist()):
        pos = 0
        while pos < ln:
            call += 1
            for a in range(off + pos, off + min(pos + maxe, ln)):
                call_of_addr[a] = call
            pos += maxe
    rows, cols = arr.shape
    grid = []
    addr_map = arr.addresses(tuple((0, s - 1) for s in arr.shape)).reshape(
        arr.shape
    )
    in_region = np.zeros(arr.shape, dtype=bool)
    (r0, r1), (c0, c1) = region
    in_region[r0 : r1 + 1, c0 : c1 + 1] = True
    for r in range(rows):
        cells = []
        for c in range(cols):
            if in_region[r, c]:
                cells.append(str(call_of_addr[int(addr_map[r, c])]))
            else:
                cells.append(".")
        grid.append(" ".join(x.rjust(2) for x in cells))
    return "\n".join(grid)


def per_tile_calls() -> tuple[int, int]:
    """Direct reproduction of the paper's counts: reading one data tile
    of the column-major array V."""
    params = FIGURE3_PARAMS
    pfs = ParallelFileSystem(params)
    v = OutOfCoreArray.create("V", (N, N), col_major(2), pfs, real=False)
    # (a) traditional tiling: a 4x4 tile -> 4 calls of 4 elements
    ctx_a = IOContext(params)
    calls_a = v.count_tile_io(((0, 3), (0, 3)), ctx_a, is_write=False)
    # (b) tile all but the innermost loop: an 8x2 tile (16 elements,
    # file-contiguous under column-major) -> 2 calls of 8
    ctx_b = IOContext(params)
    calls_b = v.count_tile_io(((0, 7), (0, 1)), ctx_b, is_write=False)
    return calls_a, calls_b


def figure3() -> tuple[str, Figure3Result]:
    calls_a, calls_b = per_tile_calls()
    params = FIGURE3_PARAMS
    pfs = ParallelFileSystem(params)
    v = OutOfCoreArray.create("Vr", (N, N), col_major(2), pfs, real=False)
    pattern_a = render_tile_access(v, ((0, 3), (0, 3)), params)
    pattern_b = render_tile_access(v, ((0, 7), (0, 1)), params)
    program = _program()
    layouts = {"U": row_major(2), "V": col_major(2)}
    runs = {}
    for label, tiling in (
        ("traditional", traditional_tiling),
        ("ooc", ooc_tiling),
    ):
        ex = OOCExecutor(
            program,
            layouts,
            params=FIGURE3_PARAMS,
            backend="simulate",
            tiling=tiling,
            memory_budget=MEMORY_ELEMENTS,
        )
        runs[label] = ex.run()
    result = Figure3Result(
        calls_per_tile_traditional=calls_a,
        calls_per_tile_ooc=calls_b,
        total_calls_traditional=runs["traditional"].stats.calls,
        total_calls_ooc=runs["ooc"].stats.calls,
    )
    text = "\n".join(
        [
            "Figure 3: different tile access patterns "
            "(8x8 arrays, 32-element memory, <=8 elements per I/O call).",
            "",
            f"(a) traditional tiling, 4x4 tile of column-major V: "
            f"{calls_a} I/O calls (paper: 4)",
            "    (cell = index of the I/O call fetching the element)",
            pattern_a,
            "",
            f"(b) all-but-innermost tiling, 8x2 tile of V: "
            f"{calls_b} I/O calls (paper: 2)",
            pattern_b,
            "",
            f"whole nest1, traditional tiling: "
            f"{result.total_calls_traditional} calls",
            f"whole nest1, out-of-core tiling: "
            f"{result.total_calls_ooc} calls",
        ]
    )
    return text, result


if __name__ == "__main__":
    print(figure3()[0])
