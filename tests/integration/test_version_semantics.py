"""The cornerstone guarantee: every experimental version of every
workload — transformed loops, exotic file layouts, tiling, chunked and
interleaved files, SPMD-sliced execution — computes exactly the arrays
the untransformed in-core interpretation computes.
"""

import numpy as np
import pytest

from repro.engine import OOCExecutor, interpret_program
from repro.engine.interpreter import initial_arrays
from repro.optimizer import VERSION_NAMES, build_version
from repro.runtime import MachineParams
from repro.workloads import build_workload, workload_names

SMALL = MachineParams(n_io_nodes=4, stripe_bytes=128, io_latency_s=0.001)

CASES = [
    (workload, version)
    for workload in workload_names()
    for version in VERSION_NAMES
]


@pytest.mark.parametrize(
    "workload,version", CASES, ids=[f"{w}-{v}" for w, v in CASES]
)
def test_version_preserves_semantics(workload, version):
    program = build_workload(workload, 6)
    binding = program.binding()
    init = initial_arrays(program, binding)
    expected = interpret_program(program, initial=init)

    cfg = build_version(version, program, params=SMALL)
    ex = OOCExecutor(
        cfg.program,
        cfg.layouts,
        params=SMALL,
        backend="memory",
        tiling=cfg.tiling,
        storage_spec=cfg.storage_spec,
        memory_budget=4000,
        initial=init,
    )
    ex.run()
    for arr in program.arrays:
        np.testing.assert_allclose(
            ex.array_data(arr.name),
            expected[arr.name],
            rtol=1e-9,
            atol=1e-9,
            err_msg=f"{workload}/{version}: array {arr.name} diverged",
        )


@pytest.mark.parametrize("workload", workload_names())
def test_tight_memory_still_correct(workload):
    """Same check under a stingy budget (tiny tiles, many passes)."""
    program = build_workload(workload, 5)
    binding = program.binding()
    init = initial_arrays(program, binding)
    expected = interpret_program(program, initial=init)
    cfg = build_version("c-opt", program, params=SMALL)
    total = sum(a.size(binding) for a in program.arrays)
    ex = OOCExecutor(
        cfg.program,
        cfg.layouts,
        params=SMALL,
        backend="memory",
        tiling=cfg.tiling,
        memory_budget=max(32, total // 4),
        initial=init,
    )
    ex.run()
    for arr in program.arrays:
        np.testing.assert_allclose(
            ex.array_data(arr.name), expected[arr.name],
            rtol=1e-9, atol=1e-9,
            err_msg=f"{workload}: array {arr.name} diverged",
        )
