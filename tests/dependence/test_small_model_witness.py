"""Dependences that exist for some values of N only.

``B(2i, j) = B(3N + 2 - 2i, j) + 1``: the write and the read meet iff
``2(i + i') = 3N + 2``, so only for even N.  An analysis at one binding
of N (N = depth + 3 = 5 once) finds no edge; ``bulk_levels`` would then
vectorise level ``i`` and the run would read elements its own earlier
iterations had already overwritten.  ``analyze_nest`` solves for every
N, so the edge is kept and the run equals the interpreter.  A large
memory budget puts the whole nest in one tile (smaller tiles would hide
a missing edge).  The same pair split over two nests must not fuse."""

import numpy as np
import pytest

from repro.engine import OOCExecutor, interpret_program
from repro.ir import ProgramBuilder
from repro.optimizer import build_version
from repro.transforms import can_fuse


def _witness(n: int):
    b = ProgramBuilder("witness", params=("N",), default_binding={"N": n})
    N = b.param("N")
    B = b.array("B", (3 * N, N))
    with b.nest("w") as nb:
        i = nb.loop("i", 1, N)
        j = nb.loop("j", 1, N)
        nb.assign(B[2 * i, j], B[3 * N + 2 - 2 * i, j] + 1.0)
    return b.build()


@pytest.mark.parametrize("version", ["col", "row"])
@pytest.mark.parametrize("n", [8, 9, 16])
def test_even_n_dependence_is_kept(n, version):
    program = _witness(n)
    cfg = build_version(version, program)
    ex = OOCExecutor(
        cfg.program, cfg.layouts, tiling=cfg.tiling,
        storage_spec=cfg.storage_spec, backend="memory", memory_budget=10**6,
    )
    ex.run()
    np.testing.assert_array_equal(
        ex.array_data("B"), interpret_program(program)["B"]
    )


def test_even_n_dependence_blocks_fusion():
    # nest a writes B(2i, j); nest b then reads B(3N + 2 - 2i, j): for
    # even N, b's iteration i' = (3N + 2)/2 - i comes before a's i when
    # i > (3N + 2)/4, so the fused nest would read before the write
    b = ProgramBuilder("fusion", params=("N",), default_binding={"N": 8})
    N = b.param("N")
    B, C = b.array("B", (3 * N, N)), b.array("C", (N, N))
    with b.nest("a") as nb:
        i = nb.loop("i", 1, N)
        j = nb.loop("j", 1, N)
        nb.assign(B[2 * i, j], 1.0)
    with b.nest("b") as nb:
        i = nb.loop("i", 1, N)
        j = nb.loop("j", 1, N)
        nb.assign(C[i, j], B[3 * N + 2 - 2 * i, j])
    first, later = b.build().nests
    assert not can_fuse(first, later)
