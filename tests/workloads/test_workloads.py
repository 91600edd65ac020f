import re

import numpy as np
import pytest

from repro.engine import OOCExecutor, interpret_program
from repro.engine.interpreter import initial_arrays
from repro.optimizer import VERSION_NAMES, build_version, optimize_program
from repro.runtime import MachineParams
from repro.workloads import WORKLOADS, build_workload, workload_names

SMALL = MachineParams(n_io_nodes=4, stripe_bytes=128, io_latency_s=0.002)


class TestRegistry:
    def test_ten_workloads(self):
        assert len(WORKLOADS) == 10
        assert set(workload_names()) == {
            "mat", "mxm", "adi", "vpenta", "btrix",
            "emit", "syr2k", "htribk", "gfunp", "trans",
        }

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            build_workload("nope")

    def test_builds_with_custom_n(self):
        p = build_workload("mat", 16)
        assert p.binding()["N"] == 16

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_table1_iter_column(self, name):
        """The `iter` column of Table 1 is the nest weight."""
        p = build_workload(name, 8)
        meta = WORKLOADS[name]
        assert all(n.weight == meta.iters for n in p.nests)


def _count_arrays(program, rank):
    return sum(1 for a in program.arrays if a.rank == rank)


class TestTable1ArrayShapes:
    """Array counts/dimensionalities must match the paper's Table 1."""

    CASES = {
        "mat": {2: 3},
        "mxm": {2: 3},
        "adi": {1: 3, 3: 3},
        "vpenta": {2: 7, 3: 2},
        "btrix": {1: 25, 4: 4},
        "emit": {1: 10, 3: 3},
        "syr2k": {2: 3},
        "htribk": {2: 5},
        "gfunp": {1: 1, 2: 5},
        "trans": {2: 2},
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_counts(self, name):
        p = build_workload(name, 8)
        for rank, count in self.CASES[name].items():
            assert _count_arrays(p, rank) == count, (
                f"{name}: expected {count} arrays of rank {rank}"
            )
        total = sum(self.CASES[name].values())
        assert len(p.arrays) == total


class TestWorkloadSemantics:
    """Every version of every workload computes the same arrays as the
    in-core reference interpreter (small sizes, real execution)."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_copt_semantics(self, name):
        p = build_workload(name, 6)
        binding = p.binding()
        init = initial_arrays(p, binding)
        expect = interpret_program(p, initial=init)
        cfg = build_version("c-opt", p, params=SMALL)
        ex = OOCExecutor(
            cfg.program, cfg.layouts, params=SMALL, backend="memory",
            tiling=cfg.tiling, storage_spec=cfg.storage_spec,
            memory_budget=2000, initial=init,
        )
        ex.run()
        for arr in p.arrays:
            np.testing.assert_allclose(
                ex.array_data(arr.name), expect[arr.name],
                err_msg=f"{name}:{arr.name}", rtol=1e-10, atol=1e-10,
            )

    @pytest.mark.parametrize("version", ["col", "row", "d-opt", "h-opt"])
    def test_gfunp_all_versions(self, version):
        p = build_workload("gfunp", 6)
        init = initial_arrays(p, p.binding())
        expect = interpret_program(p, initial=init)
        cfg = build_version(version, p, params=SMALL)
        ex = OOCExecutor(
            cfg.program, cfg.layouts, params=SMALL, backend="memory",
            tiling=cfg.tiling, storage_spec=cfg.storage_spec,
            memory_budget=2000, initial=init,
        )
        ex.run()
        for arr in p.arrays:
            np.testing.assert_allclose(
                ex.array_data(arr.name), expect[arr.name],
                err_msg=f"gfunp:{arr.name}",
            )


class TestWorkloadOptimizationShapes:
    """Per-code qualitative behaviour the paper reports."""

    def test_trans_loop_transform_useless(self):
        p = build_workload("trans", 16)
        cfg = build_version("l-opt", p)
        # no loop transformation can optimize both refs: identity survives
        from repro.linalg import IMat

        for t in cfg.decision.transforms.values():
            pass  # any choice is as good; the real check is cost parity
        # layouts, however, fix everything
        d = build_version("d-opt", p)
        layouts = d.decision.layouts
        assert layouts["B"] == (1, 0)  # row-major for B(i,j)
        assert layouts["A"] == (0, 1)  # column-major for A(j,i)

    def test_vpenta_lopt_cannot_fix_all_refs(self):
        """No loop order serves every reference of a vpenta nest against
        fixed column-major layouts (the reason l-opt stalls)."""
        from repro.optimizer.cost import access_is_spatial

        p = build_workload("vpenta", 12)
        cfg = build_version("l-opt", p)
        col_dir = (1, 0)
        bad = 0
        for nest in cfg.program.nests:
            q_last = tuple(
                1 if i == nest.depth - 1 else 0 for i in range(nest.depth)
            )
            for _, ref, _ in nest.refs():
                if ref.rank < 2:
                    continue
                l = nest.access_matrix(ref)
                d = col_dir if ref.rank == 2 else (1, 0, 0)
                if not access_is_spatial(l, q_last, d):
                    bad += 1
        assert bad > 0

    def test_vpenta_dopt_fixes_all_refs(self):
        from repro.optimizer.cost import access_is_spatial

        p = build_workload("vpenta", 12)
        cfg = build_version("d-opt", p)
        dirs = cfg.decision.directions
        assert dirs["X"] == (0, 1)  # row-major for the row-walked arrays
        assert dirs["B"] == (1, 0)  # column-major for the transposed read
        for nest in cfg.program.nests:
            q_last = tuple(
                1 if i == nest.depth - 1 else 0 for i in range(nest.depth)
            )
            for _, ref, _ in nest.refs():
                if ref.rank < 2:
                    continue
                l = nest.access_matrix(ref)
                assert access_is_spatial(
                    l, q_last, dirs.get(ref.array.name)
                ), f"{nest.name}:{ref}"

    def test_adi_lopt_transforms_sweeps(self):
        from repro.linalg import IMat

        p = build_workload("adi", 12)
        cfg = build_version("l-opt", p)
        transforms = cfg.decision.transforms
        assert any(
            t != IMat.identity(t.nrows) for t in transforms.values()
        ), "adi's x-sweep should be interchanged by l-opt"

    def test_gfunp_copt_optimizes_all_refs(self):
        from repro.optimizer.cost import access_is_spatial

        p = build_workload("gfunp", 12)
        cfg = build_version("c-opt", p)
        decision = cfg.decision
        unopt = []
        for nest in decision.program.nests:
            q_last = tuple(
                1 if i == nest.depth - 1 else 0 for i in range(nest.depth)
            )
            for _, ref, _ in nest.refs():
                if ref.rank < 2:
                    continue
                l = nest.access_matrix(ref)
                if not access_is_spatial(
                    l, q_last, decision.directions.get(ref.array.name)
                ):
                    unopt.append(f"{nest.name}:{ref}")
        assert not unopt, unopt

    def test_emit_col_already_optimal(self):
        from repro.optimizer.cost import access_is_spatial

        p = build_workload("emit", 12)
        # emit under col-major: every 3-D ref is spatial with i innermost
        cfg = build_version("col", p)
        for nest in cfg.program.nests:
            q_last = tuple(
                1 if i == nest.depth - 1 else 0 for i in range(nest.depth)
            )
            for _, ref, _ in nest.refs():
                if ref.rank != 3:
                    continue
                l = nest.access_matrix(ref)
                assert access_is_spatial(l, q_last, (1, 0, 0))
