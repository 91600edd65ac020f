#!/usr/bin/env python
"""Figure 3 live: why out-of-core tiling leaves the innermost loop
untiled.

Reproduces the paper's exact counts (4 I/O calls for a 4x4 tile of the
column-major array vs. 2 calls for an 8x2 tile, same 32-element memory),
then sweeps the memory budget to show the rule's effect at scale.
"""

from repro import MachineParams, OOCExecutor, ProgramBuilder, col_major, row_major
from repro.experiments.figure3 import figure3
from repro.transforms import ooc_tiling, traditional_tiling


def sweep(n=64):
    print(f"\nmemory-budget sweep on nest1 (N={n}): total I/O calls")
    print(f"{'memory':>8} {'traditional':>12} {'all-but-innermost':>18}")
    b = ProgramBuilder("sweep", params=("N",), default_binding={"N": n})
    N = b.param("N")
    U = b.array("U", (N, N))
    V = b.array("V", (N, N))
    with b.nest("nest1") as nest:
        i, j = nest.loop("i", 1, N), nest.loop("j", 1, N)
        nest.assign(U[i, j], V[j, i] + 1.0)
    program = b.build()
    params = MachineParams(io_latency_s=0.01, max_request_bytes=64 * 8)
    layouts = {"U": row_major(2), "V": col_major(2)}
    for budget in (64, 256, 1024, 4096):
        calls = {}
        for label, tiling in (
            ("trad", traditional_tiling),
            ("ooc", ooc_tiling),
        ):
            ex = OOCExecutor(
                program, layouts, params=params, backend="simulate",
                tiling=tiling, memory_budget=budget,
            )
            calls[label] = ex.run().stats.calls
        print(f"{budget:>8} {calls['trad']:>12} {calls['ooc']:>18}")


if __name__ == "__main__":
    text, result = figure3()
    print(text)
    assert result.calls_per_tile_traditional == 4  # the paper's count
    assert result.calls_per_tile_ooc == 2          # the paper's count
    sweep()
