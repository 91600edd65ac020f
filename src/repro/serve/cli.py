"""``python -m repro.serve`` — replay a multi-tenant workload script.

Subcommands:

``replay``
    Replay a scenario (cluster profile + tenant configs + job script)
    against the scheduler and print the deterministic schedule and the
    per-tenant summary.  The scenario comes from ``--script file.json``
    (written by :func:`repro.serve.scenario_to_dict`) or ``--demo``
    (the seeded generator); ``--trace out.json`` additionally exports
    the full observability payload, whose report section renders the
    same tenant table via ``python -m repro.obs report out.json``.

``demo-script``
    Print the seeded demo scenario as JSON — the starting point for a
    hand-edited script.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from ..obs import Observability
from .profile import (
    FAIRNESS_POLICIES,
    ServeConfigError,
    ServePolicy,
    demo_scenario,
    load_scenario,
    scenario_to_dict,
)
from .scheduler import JobScheduler


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="multi-tenant serving of optimized out-of-core programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    replay = sub.add_parser("replay", help="replay a workload script")
    src = replay.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--script", metavar="FILE", help="scenario JSON to replay"
    )
    src.add_argument(
        "--demo", action="store_true", help="use the seeded demo scenario"
    )
    replay.add_argument(
        "--seed", type=int, default=0, help="demo scenario seed (default 0)"
    )
    replay.add_argument(
        "--fairness",
        choices=FAIRNESS_POLICIES,
        default=None,
        help="override the scenario's scheduling policy",
    )
    replay.add_argument(
        "--cache",
        type=int,
        default=None,
        metavar="ELEMENTS",
        help="demo only: shared cache budget in elements (default off)",
    )
    replay.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="export the observability trace (Perfetto JSON + report)",
    )

    demo = sub.add_parser(
        "demo-script", help="print the seeded demo scenario as JSON"
    )
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--cache", type=int, default=0, metavar="ELEMENTS")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "demo-script":
            profile, script, policy = demo_scenario(
                args.seed, cache_budget_elements=args.cache
            )
            print(
                json.dumps(
                    scenario_to_dict(profile, script, policy),
                    indent=1,
                    sort_keys=True,
                )
            )
            return 0

        if args.demo:
            profile, script, policy = demo_scenario(
                args.seed,
                cache_budget_elements=args.cache or 0,
            )
        else:
            profile, script, policy = load_scenario(args.script)
        if args.fairness is not None:
            policy = ServePolicy(
                fairness=args.fairness,
                max_job_retries=policy.max_job_retries,
            )
        with Observability() if args.trace else nullcontext() as obs:
            result = JobScheduler(profile, policy, obs=obs).run(script)
            print(result.describe())
            if obs is not None:
                obs.export(args.trace)
                print(f"trace written to {args.trace}")
        return 0
    except ServeConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
