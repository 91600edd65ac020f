"""Command-line interface: ``python -m repro.autotune <command>``.

``solve``
    Run the joint search on one workload and print the decision — the
    solver actually used, the chosen layouts/tiles/cache/collective
    knobs with their predicted-cost deltas, and the objective::

        python -m repro.autotune solve --workload adi --n 32 --nodes 4

``calibrate``
    Drift demo for the calibrator alone: run a workload on a machine
    whose true latency/bandwidth differ from the believed
    :class:`~repro.runtime.MachineParams` by ``--perturb-latency`` /
    ``--perturb-bandwidth``, then refit from the run's per-nest samples
    and print believed vs. fitted vs. true::

        python -m repro.autotune calibrate --workload mxm --n 32 \\
            --perturb-latency 3.0

``loop``
    The closed loop end-to-end: solve, execute against the perturbed
    machine, observe drift, recalibrate, re-solve, and run again —
    ``--rounds`` times — printing each round's predicted vs. measured
    cost and the loop's state transitions.

All three accept ``--json`` to emit the machine-readable record
instead of the human rendering.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from ..runtime import MachineParams
from ..workloads import (
    analytics_names,
    build_analytics,
    build_workload,
    workload_names,
)
from .calibrate import CalibrationError, calibrate, samples_from_run
from .loop import AutotuneConfig, Autotuner
from .search import solve_joint
from .space import AutotuneError


def _build(name: str, n: int | None):
    if name in workload_names():
        return build_workload(name, n)
    if name in analytics_names():
        return build_analytics(name, n)
    print(
        f"error: unknown workload {name!r}; known: "
        f"{workload_names() + analytics_names()}",
        file=sys.stderr,
    )
    return None


def _perturbed(base: MachineParams, args: argparse.Namespace):
    """The 'true' machine for drift demos: believed params with
    latency multiplied and bandwidth divided by the given factors."""
    return replace(
        base,
        io_latency_s=base.io_latency_s * args.perturb_latency,
        io_bandwidth_bps=base.io_bandwidth_bps / args.perturb_bandwidth,
    )


def cmd_solve(args: argparse.Namespace) -> int:
    program = _build(args.workload, args.n)
    if program is None:
        return 2
    try:
        decision = solve_joint(
            program,
            params=MachineParams(),
            n_nodes=args.nodes,
            memory_budget=args.budget,
            solver=args.solver,
        )
    except AutotuneError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(decision.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"workload: {args.workload}  nodes: {args.nodes}")
    for line in decision.report_lines:
        print(f"  {line}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    program = _build(args.workload, args.n)
    if program is None:
        return 2
    believed = MachineParams()
    true = _perturbed(believed, args)
    tuner = Autotuner(program, params=believed, n_nodes=args.nodes)
    tuner.solve()
    run = tuner.run_once(true_params=true)
    try:
        result = calibrate(run, believed=believed)
    except CalibrationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    io_s, net_s = samples_from_run(run)
    record = {
        "workload": args.workload,
        "n_io_samples": len(io_s),
        "n_net_samples": len(net_s),
        "believed": {
            "io_latency_s": believed.io_latency_s,
            "io_bandwidth_bps": believed.io_bandwidth_bps,
        },
        "fitted": result.to_dict(),
        "true": {
            "io_latency_s": true.io_latency_s,
            "io_bandwidth_bps": true.io_bandwidth_bps,
        },
    }
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    print(f"workload: {args.workload}  samples: {len(io_s)} io, "
          f"{len(net_s)} net")
    print(f"  believed: latency {believed.io_latency_s:.6g}s  "
          f"bandwidth {believed.io_bandwidth_bps:.6g} B/s")
    print(f"  fitted:   latency {result.io.latency_s:.6g}s  "
          f"bandwidth {result.io.bandwidth_bps:.6g} B/s  "
          f"(rms residual {result.io.residual_s:.3g}s)")
    print(f"  true:     latency {true.io_latency_s:.6g}s  "
          f"bandwidth {true.io_bandwidth_bps:.6g} B/s")
    return 0


def cmd_loop(args: argparse.Namespace) -> int:
    program = _build(args.workload, args.n)
    if program is None:
        return 2
    believed = MachineParams()
    true = _perturbed(believed, args)
    tuner = Autotuner(
        program,
        params=believed,
        n_nodes=args.nodes,
        config=AutotuneConfig(solver=args.solver),
    )
    tuner.solve()
    rounds = []
    for i in range(args.rounds):
        run = tuner.run_once(true_params=true)
        event = tuner.observe(run)
        rounds.append({
            "round": i,
            "event": event["event"],
            "state": tuner.state,
            "predicted_s": tuner.decision.predicted_cost_s,
            "measured_io_s": event.get("measured_io_s"),
            "cost_drift": event.get("cost_drift"),
        })
        if not args.json:
            print(
                f"round {i}: {event['event']:<20s} "
                f"drift {event.get('cost_drift', 0.0):.4f}  "
                f"predicted {tuner.decision.predicted_cost_s:.4f}s  "
                f"measured io "
                f"{event.get('measured_io_s', 0.0):.4f}s"
            )
    if args.json:
        print(json.dumps(
            {"rounds": rounds, "summary": tuner.summary()},
            indent=2, sort_keys=True,
        ))
        return 0
    s = tuner.summary()
    print(
        f"final: state={s['state']} recalibrations="
        f"{s['recalibrations']} resolves={s['resolves']} "
        f"drift_events={s['drift_events']}"
    )
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workload", default="adi",
                   help="workload or analytics name (default: adi)")
    p.add_argument("--n", type=int, default=32,
                   help="problem size binding (default: 32)")
    p.add_argument("--nodes", type=int, default=1,
                   help="compute nodes (default: 1)")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")


def _add_perturb(p: argparse.ArgumentParser) -> None:
    p.add_argument("--perturb-latency", type=float, default=3.0,
                   help="true latency = believed x this (default: 3.0)")
    p.add_argument("--perturb-bandwidth", type=float, default=2.0,
                   help="true bandwidth = believed / this (default: 2.0)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.autotune",
        description="joint co-optimization + drift-driven recalibration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the joint search")
    _add_common(p_solve)
    p_solve.add_argument("--budget", type=int, default=None,
                         help="memory budget in elements per node")
    p_solve.add_argument(
        "--solver", default="auto",
        choices=("auto", "milp", "exhaustive"),
        help="stage-A layout solver (default: auto)")

    p_cal = sub.add_parser(
        "calibrate", help="refit machine parameters from a drifted run")
    _add_common(p_cal)
    _add_perturb(p_cal)

    p_loop = sub.add_parser(
        "loop", help="run the closed drift-recalibrate-resolve loop")
    _add_common(p_loop)
    _add_perturb(p_loop)
    p_loop.add_argument("--rounds", type=int, default=3,
                        help="observe/recalibrate rounds (default: 3)")
    p_loop.add_argument(
        "--solver", default="auto",
        choices=("auto", "milp", "exhaustive"),
        help="stage-A layout solver (default: auto)")

    args = parser.parse_args(argv)
    if args.command == "solve":
        return cmd_solve(args)
    if args.command == "calibrate":
        return cmd_calibrate(args)
    return cmd_loop(args)


if __name__ == "__main__":
    raise SystemExit(main())
