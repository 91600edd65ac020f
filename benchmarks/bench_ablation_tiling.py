"""Ablation: the all-but-innermost tiling rule (Section 3.3).

Runs every code's c-opt layouts under (a) traditional tiling (every
level), (b) the paper's rule (all but the innermost), and (c) innermost-
only strip-mining, and compares I/O calls — Figure 3 generalized to the
whole suite.
"""

import pytest
from conftest import run_once

from repro.engine import OOCExecutor
from repro.optimizer import build_version
from repro.transforms import ooc_tiling, traditional_tiling
from repro.transforms.tiling import TilingSpec
from repro.workloads import build_workload, workload_names


def innermost_only(nest):
    return TilingSpec((False,) * (nest.depth - 1) + (True,))


def _run(workload, settings, tiling):
    program = build_workload(workload, settings.n)
    cfg = build_version("c-opt", program, params=settings.params)
    total = sum(
        int(__import__("numpy").prod(a.shape(program.binding())))
        for a in program.arrays
    )
    ex = OOCExecutor(
        cfg.program,
        cfg.layouts,
        params=settings.params,
        backend="simulate",
        tiling=tiling,
        memory_budget=max(64, total // settings.params.memory_fraction),
    )
    return ex.run().stats


@pytest.mark.parametrize("workload", workload_names())
def test_tiling_rule(benchmark, settings, workload, json_out):
    def sweep():
        return {
            "traditional": _run(workload, settings, traditional_tiling),
            "ooc": _run(workload, settings, ooc_tiling),
            "innermost-only": _run(workload, settings, innermost_only),
        }

    stats = run_once(benchmark, sweep)
    json_out(f"ablation_tiling.{workload}", stats, n=settings.n)
    print(
        f"\n{workload}: "
        + "  ".join(f"{k}={v.calls} calls" for k, v in stats.items())
    )
    # the paper's rule never does more I/O calls than traditional tiling
    assert stats["ooc"].calls <= stats["traditional"].calls * 1.01
