"""Command-line interface: ``python -m repro.obs <command>``.

``report <trace.json | run.jsonl | ->``
    Print the per-nest × per-array I/O breakdown table of an exported
    trace (or of a streamed journal, folded to the same payload), the
    redistribution lines, the cost-model drift and optimality sections,
    and the cross-check against the run's folded
    :class:`~repro.runtime.stats.IOStats`.

``capture``
    Run one workload version on the simulated machine with observability
    enabled and export the trace — the quickest way to get a
    Perfetto-loadable file (and the file CI uploads as an artifact)::

        python -m repro.obs capture --workload adi --collective \\
            --out trace.json
        python -m repro.obs report trace.json

``profile``
    Run one workload version under cProfile and print the ``top``-style
    report: where the wall time went by layer (with the coverage of
    that table), the span aggregates and the deterministic work
    counters.  ``--folded`` also writes the capture as flamegraph
    collapsed-stack lines; ``--journal`` streams the run's telemetry to
    a JSONL journal; ``--openmetrics`` writes the metrics registry in
    Prometheus/OpenMetrics text exposition::

        python -m repro.obs profile --workload adi --folded prof.folded \\
            --journal run.jsonl

``top <trace.json | run.jsonl | ->``
    Print that same report from a previously exported trace or journal
    (one that was captured with profiling enabled).

``journal <events.jsonl>``
    Inspect a streamed JSONL journal: event-count summary by default,
    ``--report`` replays it into the I/O report renderer,
    ``--openmetrics`` re-renders the final metrics snapshot as
    OpenMetrics text, ``--emit-doc`` folds ``result`` events into a
    regression-gate document.

``regress capture|check|report``
    The benchmark regression observatory (:mod:`repro.obs.baselines`,
    :mod:`repro.obs.regress`): snapshot the benchmark suite's
    deterministic results into a schema-versioned baseline, diff a
    later run against it with per-metric tolerance policies, and
    summarize stored baselines.  ``check`` is CI's perf gate::

        python -m repro.obs regress capture --smoke \\
            --out benchmarks/baselines/BENCH_smoke.json
        python -m pytest benchmarks -q --smoke --json current.json
        python -m repro.obs regress check \\
            benchmarks/baselines/BENCH_smoke.json current.json

    Exit codes: 0 pass, 1 regression detected, 2 usage / missing file /
    malformed document.
"""

from __future__ import annotations

import argparse
import sys

from . import Observability, _payload_report, load_trace
from .baselines import BaselineError


def _load(path: str, fold=None):
    """What a renderer reads, or ``None`` after printing the error.

    With ``fold=None`` that is a payload: a trace JSON, ``-`` (trace
    JSON on stdin) or a streamed ``.jsonl`` journal folded by
    :func:`payload_from_journal`.  With a ``fold``, ``path`` is a
    journal whatever its name and the result is ``fold(events)``."""
    import json

    from .journal import JournalError, payload_from_journal, read_journal

    if fold is None and path.endswith(".jsonl"):
        fold = payload_from_journal
    try:
        if fold is not None:
            return fold(read_journal(path))
        payload = json.load(sys.stdin) if path == "-" else load_trace(path)
        if isinstance(payload, dict):
            return payload
        problem = f"{path} is not a trace payload (top level is not an object)"
    except FileNotFoundError:
        problem = f"file not found: {path}"
    except JournalError as e:
        problem = str(e)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        source = "stdin" if path == "-" else path
        problem = f"malformed trace JSON in {source}: {e}"
    print(f"error: {problem}", file=sys.stderr)
    return None


def _user_errors(cmd, errors=(KeyError, ValueError)):
    """Wrap a command whose arguments reach the library as given: its
    named ``errors`` (by default ``KeyError`` / ``ValueError``: unknown
    workload or version, non-positive ``--n`` / ``--nodes`` / ``--top``
    / ``--memory``; a :class:`~repro.obs.baselines.BaselineError` for
    ``regress``) are one ``error:`` line and exit code 2, not a
    traceback."""

    def wrapped(args: argparse.Namespace) -> int:
        try:
            return cmd(args)
        except errors as e:
            print(f"error: {e.args[0] if e.args else e}", file=sys.stderr)
            return 2

    return wrapped


def cmd_report(args: argparse.Namespace) -> int:
    payload = _load(args.trace)
    if payload is None:
        return 2
    print(_payload_report(payload, include_metrics=args.metrics))
    return 0


def _observed_run(args: argparse.Namespace, cfg, *, journal=None, **run_kw):
    """Run version ``cfg`` on the simulated machine as ``args`` asks,
    under a fresh :class:`Observability` — exported to ``args.out`` when
    given, closed on return (which completes ``journal``).  Returns
    ``(run, obs)``."""
    # local imports: the CLI must not drag the whole system into every
    # `python -m repro.obs report` invocation
    from ..collective import CollectiveConfig
    from ..experiments.harness import _scaled_params
    from ..parallel import run_version_parallel
    from ..runtime.params import check_n_nodes

    # before the journal file is created: a usage error leaves nothing
    check_n_nodes(args.nodes)
    collective = CollectiveConfig(mode=args.mode) if args.collective else None
    with Observability(journal=journal) as obs:
        run = run_version_parallel(
            cfg,
            args.nodes,
            params=_scaled_params(args.n),
            collective=collective,
            obs=obs,
            **run_kw,
        )
        if args.out:
            obs.export(args.out)
    return run, obs


def cmd_capture(args: argparse.Namespace) -> int:
    from ..optimizer import build_version
    from ..workloads import build_workload

    cfg = build_version(args.version, build_workload(args.workload, args.n))
    run, _ = _observed_run(args, cfg, journal=args.journal)
    print(
        f"{args.workload}/{args.version} on {args.nodes} node(s): "
        f"time={run.time_s:.3f}s calls={run.total_io_calls} -> {args.out}"
    )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from ..optimizer import build_version
    from ..workloads import build_workload
    from .profile import ProfileConfig, validate_collapsed

    profile = ProfileConfig(cprofile=True, top=args.top)
    cfg = build_version(args.version, build_workload(args.workload, args.n))
    run, obs = _observed_run(args, cfg, journal=args.journal, profile=profile)
    prof = run.profile
    print(
        f"{args.workload}/{args.version} on {args.nodes} node(s): "
        f"time={run.time_s:.3f}s calls={run.total_io_calls}"
    )
    print(prof.render_top())
    if args.folded:
        lines = prof.collapsed()
        validate_collapsed(lines)
        with open(args.folded, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        print(f"collapsed stacks ({len(lines)} line(s)) -> {args.folded}")
    if args.openmetrics:
        from .export import render_openmetrics

        with open(args.openmetrics, "w") as fh:
            fh.write(render_openmetrics(obs.metrics))
        print(f"openmetrics -> {args.openmetrics}")
    if args.out:
        print(f"trace -> {args.out}")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from .profile import render_profile

    payload = _load(args.trace)
    if payload is None:
        return 2
    prof = payload.get("profile")
    if not isinstance(prof, dict):
        print(
            f"error: {args.trace} has no profile section "
            "(captured without profiling?)",
            file=sys.stderr,
        )
        return 2
    print(render_profile(prof, top=args.top))
    return 0


def cmd_journal(args: argparse.Namespace) -> int:
    import json

    from .journal import doc_from_journal, payload_from_journal

    if args.emit_doc:
        fold = doc_from_journal
    elif args.openmetrics or args.report:
        fold = payload_from_journal
    else:
        fold = list
    folded = _load(args.path, fold)
    if folded is None:
        return 2
    if args.emit_doc:
        print(json.dumps(folded, indent=2, sort_keys=True))
    elif args.openmetrics:
        from .export import render_openmetrics
        from .metrics import registry_from_snapshot

        registry = registry_from_snapshot(folded["metrics"])
        print(render_openmetrics(registry), end="")
    elif args.report:
        print(_payload_report(folded, include_metrics=args.metrics))
    else:
        kinds: dict[str, int] = {}
        for ev in folded:
            kinds[ev["kind"]] = kinds.get(ev["kind"], 0) + 1
        print(f"{args.path}: {len(folded)} event(s)")
        for kind in sorted(kinds):
            print(f"  {kind:<12} {kinds[kind]}")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    from ..bounds import program_bounds
    from ..optimizer import build_version
    from ..workloads import build_analytics, build_workload
    from .report import Column, render_optimality, render_table

    try:
        program = build_workload(args.workload, args.n)
    except KeyError:
        program = build_analytics(args.workload, args.n)
    if args.static:
        bounds = program_bounds(
            program, memory_elements=args.memory, n_nodes=args.nodes
        )
        print("\n".join(render_table(None, (
            Column("nest", 16), Column("rule", 22),
            Column("bound", 10, ">", ".0f", get="bound_elements"),
            Column("reads>=", 10, ">", ".0f", get="read_elements"),
            Column("writes>=", 10, ">", ".0f", get="write_elements"),
            Column("detail", sep="  "),
        ), bounds)))
        print(
            f"M={bounds[0].memory_elements if bounds else args.memory} "
            f"elements/node, {args.nodes} node(s)"
        )
        return 0
    run, obs = _observed_run(
        args, build_version(args.version, program),
        memory_per_node=args.memory,
    )
    stats = run.total_stats.to_dict()
    print(
        f"{args.workload}/{args.version} on {args.nodes} node(s), "
        f"path={'two-phase' if args.collective else 'independent'}"
    )
    print("\n".join(render_optimality(obs.report.optimality, stats)))
    if args.out:
        print(f"trace -> {args.out}")
    return 0


def cmd_regress_capture(args: argparse.Namespace) -> int:
    from .baselines import capture

    doc = capture(args.out, args.bench or None, smoke=args.smoke)
    print(
        f"captured {len(doc['results'])} benchmark result(s) "
        f"(smoke={doc['smoke']}, rev={str(doc['git_rev'])[:12]}) "
        f"-> {args.out}"
    )
    return 0


def cmd_regress_check(args: argparse.Namespace) -> int:
    from .regress import TolerancePolicy, check_paths, render_regress

    report = check_paths(
        args.baseline, args.current, TolerancePolicy(rel_tol=args.rel_tol),
    )
    print(render_regress(report))
    return 0 if report.ok else 1


def cmd_regress_report(args: argparse.Namespace) -> int:
    from .baselines import load_baseline
    from .regress import summarize_baseline

    print(summarize_baseline(load_baseline(args.baseline)))
    return 0


def _program_args(p: argparse.ArgumentParser) -> None:
    """The workload version a running command observes."""
    p.add_argument("--workload", default="adi")
    p.add_argument("--version", default="c-opt")
    p.add_argument("--n", type=int, default=24)
    p.add_argument("--nodes", type=int, default=4)


def _collective_args(
    p: argparse.ArgumentParser,
    help: str = "run through the two-phase collective layer + event sim",
) -> None:
    p.add_argument("--collective", action="store_true", help=help)
    p.add_argument(
        "--mode", default="auto", choices=("auto", "always", "never"),
        help="collective mode (with --collective)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="tracing / metrics / profiling for the repro system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", help="per-nest x per-array I/O table from a trace file"
    )
    p_report.add_argument(
        "trace",
        help="trace JSON written by obs.export(), a .jsonl journal, "
        "or '-' for trace JSON on stdin",
    )
    p_report.add_argument(
        "--metrics", action="store_true", help="also dump the metrics registry"
    )
    p_report.set_defaults(func=cmd_report)

    p_cap = sub.add_parser(
        "capture", help="run a workload with observability on, export trace"
    )
    _program_args(p_cap)
    _collective_args(p_cap)
    p_cap.add_argument("--out", default="trace.json")
    p_cap.add_argument(
        "--journal", default=None, metavar="PATH",
        help="also stream events to an append-only JSONL journal",
    )
    p_cap.set_defaults(func=_user_errors(cmd_capture))

    p_prof = sub.add_parser(
        "profile",
        help="run a workload under cProfile, print the by-layer top report",
    )
    _program_args(p_prof)
    _collective_args(p_prof)
    p_prof.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="rows to show per table (default 20)",
    )
    p_prof.add_argument(
        "--folded", default=None, metavar="PATH",
        help="also write flamegraph collapsed-stack lines",
    )
    p_prof.add_argument(
        "--journal", default=None, metavar="PATH",
        help="stream telemetry to an append-only JSONL journal",
    )
    p_prof.add_argument(
        "--openmetrics", default=None, metavar="PATH",
        help="write the metrics registry as OpenMetrics text",
    )
    p_prof.add_argument(
        "--out", default=None, metavar="PATH",
        help="also export the obs trace JSON (includes the profile)",
    )
    p_prof.set_defaults(func=_user_errors(cmd_profile))

    p_top = sub.add_parser(
        "top", help="by-layer top report of a profiled trace file"
    )
    p_top.add_argument(
        "trace",
        help="trace JSON or .jsonl journal of a profiled capture, "
        "'-' for trace JSON on stdin",
    )
    p_top.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="rows to show per table (default 20)",
    )
    p_top.set_defaults(func=_user_errors(cmd_top))

    p_jr = sub.add_parser(
        "journal", help="inspect / replay a streamed JSONL event journal"
    )
    p_jr.add_argument("path", help="JSONL journal written with --journal")
    p_jr.add_argument(
        "--report", action="store_true",
        help="replay the journal into the I/O report renderer",
    )
    p_jr.add_argument(
        "--metrics", action="store_true",
        help="with --report: also dump the metrics registry",
    )
    p_jr.add_argument(
        "--openmetrics", action="store_true",
        help="re-render the final metrics snapshot as OpenMetrics text",
    )
    p_jr.add_argument(
        "--emit-doc", action="store_true", dest="emit_doc",
        help="fold result events into a regression-gate document (JSON)",
    )
    p_jr.set_defaults(func=cmd_journal)

    p_bounds = sub.add_parser(
        "bounds",
        help="static I/O lower bounds + achieved-vs-bound optimality",
    )
    _program_args(p_bounds)
    p_bounds.add_argument(
        "--memory", type=int, default=None, metavar="ELEMENTS",
        help="per-node memory capacity M (default: executor's budget)",
    )
    p_bounds.add_argument(
        "--static", action="store_true",
        help="print the static bounds only, without running",
    )
    _collective_args(p_bounds, "run through the two-phase collective layer")
    p_bounds.add_argument(
        "--out", default=None, metavar="PATH",
        help="also export the obs trace JSON",
    )
    p_bounds.set_defaults(func=_user_errors(cmd_bounds))

    p_reg = sub.add_parser(
        "regress",
        help="benchmark baseline store + regression gate",
    )
    reg_sub = p_reg.add_subparsers(dest="regress_command", required=True)

    p_rc = reg_sub.add_parser(
        "capture", help="run the benchmark suite, snapshot a baseline"
    )
    p_rc.add_argument(
        "--out", required=True, metavar="PATH",
        help="baseline JSON to write (e.g. BENCH_tables.json)",
    )
    p_rc.add_argument(
        "--smoke", action="store_true",
        help="capture in --smoke mode (CI gate baselines)",
    )
    p_rc.add_argument(
        "--bench", action="append", default=[], metavar="ARG",
        help="pytest selection arg (repeatable; default: benchmarks/)",
    )
    p_rc.set_defaults(func=_user_errors(cmd_regress_capture, BaselineError))

    p_rk = reg_sub.add_parser(
        "check", help="diff current results against a baseline (CI gate)"
    )
    p_rk.add_argument("baseline", help="stored baseline JSON")
    p_rk.add_argument(
        "current",
        help="current results (pytest --json doc or baseline), '-' for stdin",
    )
    p_rk.add_argument(
        "--rel-tol", type=float, default=0.01, metavar="FRAC",
        help="relative tolerance for modeled float values (default 0.01)",
    )
    p_rk.set_defaults(func=_user_errors(cmd_regress_check, BaselineError))

    p_rr = reg_sub.add_parser(
        "report", help="summarize a stored baseline file"
    )
    p_rr.add_argument("baseline", help="stored baseline JSON")
    p_rr.set_defaults(func=_user_errors(cmd_regress_report, BaselineError))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
