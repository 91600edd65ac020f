"""Extension: ILP-optimal layout assignment (the paper's announced
future work, Section 5) versus the greedy global algorithm.

The exact optimum can never lose in the shared cost model; on most of
the suite the greedy order already finds it — which is itself a finding
worth recording (the paper's heuristic is near-optimal on its own
benchmark suite).
"""

import pytest
from conftest import run_once

from repro.engine import OOCExecutor
from repro.optimizer import optimize_program, optimize_program_ilp
from repro.transforms import normalize_program
from repro.workloads import build_workload, workload_names


def _run(decision, settings, program):
    import numpy as np

    total = sum(
        int(np.prod(a.shape(program.binding()))) for a in program.arrays
    )
    ex = OOCExecutor(
        decision.program,
        decision.layout_objects(default="col"),
        params=settings.params,
        backend="simulate",
        memory_budget=max(64, total // settings.params.memory_fraction),
    )
    return ex.run().stats.total_time_s


@pytest.mark.parametrize("workload", workload_names())
def test_ilp_vs_greedy(benchmark, settings, workload, json_out):
    program = normalize_program(build_workload(workload, settings.n))

    def sweep():
        greedy = optimize_program(program)
        exact = optimize_program_ilp(program)
        return {
            "greedy": _run(greedy, settings, program),
            "ilp": _run(exact, settings, program),
        }

    results = run_once(benchmark, sweep)
    json_out(f"ilp_vs_greedy.{workload}", results, n=settings.n)
    print(f"\n{workload}: greedy {results['greedy']:.3f}s, "
          f"ilp {results['ilp']:.3f}s")
    # The ILP is optimal in the *per-iteration locality* model; executed
    # time also contains tile-footprint volume effects outside that model
    # (syr2k: two model-equal optima differ ~16% in execution).  The
    # exact optimizer must stay competitive everywhere regardless.
    assert results["ilp"] <= results["greedy"] * 1.25
