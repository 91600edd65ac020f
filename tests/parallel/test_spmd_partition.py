"""SPMD partitioning invariants: the node slices exactly cover the work."""

import numpy as np
import pytest

from repro.engine import OOCExecutor, interpret_program
from repro.engine.interpreter import initial_arrays
from repro.ir import ProgramBuilder
from repro.parallel.spmd import run_version_parallel
from repro.optimizer import build_version
from repro.runtime import MachineParams, ParallelFileSystem

SMALL = MachineParams(n_io_nodes=4, stripe_bytes=128, io_latency_s=0.001)


def copy_program(n=12):
    b = ProgramBuilder("p", params=("N",), default_binding={"N": n})
    N = b.param("N")
    A = b.array("A", (N, N))
    B = b.array("B", (N, N))
    with b.nest("c") as nb:
        i = nb.loop("i", 1, N)
        j = nb.loop("j", 1, N)
        nb.assign(A[i, j], B[j, i] + 1.0)
    return b.build()


class TestNodeSlicing:
    def test_bad_slice_rejected(self):
        with pytest.raises(ValueError):
            OOCExecutor(copy_program(), params=SMALL, node_slice=(4, 4))

    def test_slices_partition_iterations(self):
        """The per-node compute iteration counts sum to the full count."""
        p = copy_program(12)
        full = OOCExecutor(
            p, params=SMALL, backend="simulate", memory_budget=120
        ).run()
        total = 0.0
        for rank in range(4):
            r = OOCExecutor(
                p, params=SMALL, backend="simulate", memory_budget=120,
                node_slice=(rank, 4),
            ).run()
            total += r.stats.compute_time_s
        assert total == pytest.approx(full.stats.compute_time_s, rel=1e-9)

    def test_sliced_real_execution_combines_to_full_result(self):
        """Running each node's slice for real against a SHARED file system
        reconstructs exactly the sequential result (no communication is
        needed: slices touch disjoint regions of the written array)."""
        p = copy_program(8)
        binding = p.binding()
        init = initial_arrays(p, binding)
        expected = interpret_program(p, initial=init)
        pfs = ParallelFileSystem(SMALL)
        # build node 0 first (it creates and initializes the arrays),
        # then reuse its storage for the other slices
        ex0 = OOCExecutor(
            p, params=SMALL, backend="memory", memory_budget=200,
            initial=init, pfs=pfs, node_slice=(0, 2),
        )
        ex0.run()
        ex1 = OOCExecutor.__new__(OOCExecutor)
        # share the stores: emulate the second node on the same files
        ex1.__dict__.update(ex0.__dict__)
        ex1.node_slice = (1, 2)
        ex1._run_count = 0
        ex1.run()
        np.testing.assert_allclose(ex0.array_data("A"), expected["A"])

    def test_more_nodes_than_rows(self):
        """Degenerate: more nodes than outer iterations — extra nodes do
        nothing, the busy ones still cover everything."""
        p = copy_program(4)
        cfg = build_version("c-opt", p, params=SMALL)
        run = run_version_parallel(cfg, 16, params=SMALL)
        moved = sum(r.stats.elements_moved for r in run.node_results)
        single = run_version_parallel(cfg, 1, params=SMALL)
        assert moved == single.total_stats.elements_moved

    def test_untiled_nest_runs_on_node0_only(self):
        from repro.transforms import no_tiling

        p = copy_program(6)
        runs = []
        for rank in range(2):
            ex = OOCExecutor(
                p, params=SMALL, backend="simulate", memory_budget=10**6,
                tiling=no_tiling, node_slice=(rank, 2),
            )
            runs.append(ex.run())
        assert runs[0].stats.calls > 0
        assert runs[1].stats.calls == 0
