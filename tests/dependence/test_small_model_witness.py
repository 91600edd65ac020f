"""A live wrong answer of the small-model dependence analysis (ROADMAP
item 11), pinned until the analysis is exact in N.

``B(2i, j) = B(3N + 2 - 2i, j) + 1``: the write and the read meet iff
``2(i + i') = 3N + 2``, so only for even N.  ``analyze_nest`` analyses
at ``N = depth + 3 = 5`` and finds no edge, ``bulk_levels`` vectorises
level ``i``, and the run reads elements its own earlier iterations have
already overwritten.  A large memory budget puts the whole nest in one
tile; the default budget's smaller tiles hide the bug."""

import numpy as np
import pytest

from repro.engine import OOCExecutor, interpret_program
from repro.ir import ProgramBuilder
from repro.optimizer import build_version


def _witness(n: int):
    b = ProgramBuilder("witness", params=("N",), default_binding={"N": n})
    N = b.param("N")
    B = b.array("B", (3 * N, N))
    with b.nest("w") as nb:
        i = nb.loop("i", 1, N)
        j = nb.loop("j", 1, N)
        nb.assign(B[2 * i, j], B[3 * N + 2 - 2 * i, j] + 1.0)
    return b.build()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11")
@pytest.mark.parametrize("version", ["col", "row"])
@pytest.mark.parametrize("n", [8, 16])
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
