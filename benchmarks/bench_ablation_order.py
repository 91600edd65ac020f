"""Ablation: processing nests in cost order (step 3.a).

The paper optimizes the costliest nest first so the cheap nests adapt to
its layouts.  Compare against processing in program order on a program
whose *last* nest dominates the cost: cost ordering must not lose, and
when the orders disagree it should win.
"""

from conftest import run_once

from repro.engine import OOCExecutor
from repro.ir import ProgramBuilder
from repro.optimizer import optimize_program
from repro.runtime import MachineParams


def skewed_cost_program(n=96):
    """nest1 is cheap (1 statement, weight 1); nest2 is hot (weight 8).
    They want conflicting layouts for the shared array S."""
    b = ProgramBuilder("skewed", params=("N",), default_binding={"N": n})
    N = b.param("N")
    S = b.array("S", (N, N))
    A = b.array("A", (N, N))
    B2 = b.array("B", (N, N))
    with b.nest("cheap", weight=1) as nb:
        i, j = nb.loop("i", 1, N), nb.loop("j", 1, N)
        nb.assign(A[i, j], S[j, i] + 1.0)  # wants S column-major
    with b.nest("hot", weight=8) as nb:
        i, j = nb.loop("i", 1, N), nb.loop("j", 1, N)
        nb.assign(S[i, j], S[i, j] + B2[j, i])  # wants S row-major
    return b.build()


def _time(program, order):
    decision = optimize_program(program, nest_order=order, allow_loop=False)
    params = MachineParams(io_latency_s=0.002, sieve_gap_bytes=4096)
    ex = OOCExecutor(
        decision.program,
        decision.layout_objects(default="col"),
        params=params,
        backend="simulate",
        memory_budget=16 * program.binding()["N"],
    )
    return ex.run().stats.io_time_s, decision.layouts


def test_cost_order_wins(benchmark, json_out):
    program = skewed_cost_program()

    def sweep():
        return {order: _time(program, order) for order in ("cost", "program")}

    results = run_once(benchmark, sweep)
    json_out("ablation_order", {
        order: {"io_time_s": t, "layouts": {k: list(v) for k, v in lay.items()}}
        for order, (t, lay) in results.items()
    }, n=96)
    print()
    for order, (t, layouts) in results.items():
        print(f"  {order}-ordered: {t:.3f}s, layouts {layouts}")
    t_cost, lay_cost = results["cost"]
    t_prog, lay_prog = results["program"]
    # the hot nest's preference must win under cost ordering
    assert lay_cost["S"] == (1, 0)  # row-major
    assert t_cost <= t_prog * 1.01
