"""The whole pipeline is deterministic: same inputs, bit-identical
outputs — a hard requirement for a simulator used to compare versions."""

import numpy as np
import pytest

from repro.engine import OOCExecutor
from repro.engine.interpreter import initial_arrays
from repro.experiments.harness import ExperimentSettings, run_table2_row
from repro.optimizer import build_version, optimize_program
from repro.parallel import run_version_parallel
from repro.workloads import build_workload

SETTINGS = ExperimentSettings(n=32)


class TestDeterminism:
    def test_optimizer_decisions_stable(self):
        p = build_workload("gfunp", 16)
        d1 = optimize_program(p)
        d2 = optimize_program(p)
        assert d1.layouts == d2.layouts
        assert d1.directions == d2.directions
        assert d1.transforms == d2.transforms

    def test_simulated_times_stable(self):
        t1 = run_table2_row("trans", SETTINGS)
        t2 = run_table2_row("trans", SETTINGS)
        for v in t1:
            assert t1[v] == pytest.approx(t2[v], rel=0, abs=0)

    def test_parallel_run_stable(self):
        cfg = build_version("c-opt", build_workload("adi", 32))
        r1 = run_version_parallel(cfg, 4, params=SETTINGS.params)
        r2 = run_version_parallel(cfg, 4, params=SETTINGS.params)
        assert r1.time_s == r2.time_s
        assert r1.total_io_calls == r2.total_io_calls

    def test_real_execution_stable(self):
        p = build_workload("trans", 6)
        init = initial_arrays(p, p.binding())
        outs = []
        for _ in range(2):
            ex = OOCExecutor(
                p, params=SETTINGS.params, backend="memory",
                memory_budget=500, initial=init,
            )
            ex.run()
            outs.append(ex.array_data("B"))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_initial_arrays_are_seeded_per_name(self):
        p = build_workload("trans", 6)
        a = initial_arrays(p, p.binding())
        b = initial_arrays(p, p.binding())
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
        assert not np.array_equal(a["A"], a["B"])  # name-dependent


class TestRunResultSurfaces:
    def test_parallel_run_accessors(self):
        cfg = build_version("col", build_workload("trans", 16))
        run = run_version_parallel(cfg, 2, params=SETTINGS.params)
        assert run.total_io_calls == sum(
            r.stats.calls for r in run.node_results
        )
        assert run.total_stats.calls == run.total_io_calls
        assert run.version == "col"

    def test_program_pretty(self):
        p = build_workload("trans", 8)
        text = p.pretty()
        assert "program trans" in text
        assert "declare A(N, N)" in text
        assert "do i = 1, N" in text

    def test_version_describe(self):
        cfg = build_version("d-opt", build_workload("trans", 8))
        assert "d-opt" in cfg.describe()
        assert "row-major" in cfg.describe()
