"""perfbench: wall-clock benchmark of the repro package.

    python3 perfbench/run.py --seed 7             # everything, human-readable
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

For each workload, fresh-process samples (perfbench/sample.py) are taken
until ``--seconds`` of body time has been measured (or exactly
``--repeats K``).  ``wall_s`` and ``cpu_s`` sum each unit's fastest sample;
the other end-to-end metrics are medians over the samples.
A traced part then runs one more untraced sample and one sample under
perfbench/trace.py for the per-layer table.  Results go to
``perfbench/results/latest.json``; with one workload and an explicit
``--trace`` the last line printed is the result object of the
BENCHMARK.json contract.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SCHEMA_VERSION = 1
#: a sample that runs this long is killed and counted as failed
SAMPLE_TIMEOUT_S = 150

#: end-to-end metrics a sample measures directly; ``ok_frac`` is derived
SAMPLED = (
    "wall_s", "cpu_s", "setup_s", "peak_rss_mb", "sim_time_s", "sim_io_calls"
)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spawn_sample(workload: str, seed: int, *extra: str) -> dict | None:
    """One sample in a fresh process; ``None`` if it died."""
    cmd = [
        sys.executable, os.path.join(HERE, "sample.py"),
        "--workload", workload, "--seed", str(seed),
        "--started-at", repr(time.time()), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"  sample of {workload} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"  sample of {workload} exited {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float], unit: str) -> dict:
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1
        else (values[0],) * 3
    )
    return {
        "value": statistics.median(values), "unit": unit,
        "min": min(values), "max": max(values), "q1": q1, "q3": q3,
        "samples": len(values),
    }


def fastest_units(samples: list[dict], field: str) -> float:
    """Σ over units of the unit's fastest execution among the samples.

    The program is deterministic and every sample runs the units in the
    same order, equally cold; what differs between samples is what the
    box was doing.  That noise only ever adds time (steal, a busy
    sibling core), and it comes and goes within a body, so a unit's
    fastest of K runs is far steadier than the median of K body totals."""
    return sum(
        min(s[field][key] for s in samples) for key in samples[0][field]
    )


def measure_untraced(
    workload: str, seed: int, units: dict[str, str],
    seconds: float, repeats: int | None, extra: list[str],
) -> dict:
    """Samples until ``seconds`` of body time is measured, or ``repeats``."""
    samples: list[dict] = []
    crashed = 0

    def enough() -> bool:
        if repeats is not None:
            return len(samples) + crashed >= repeats
        measured_s = sum(s["wall_s"] for s in samples)
        return measured_s >= seconds or crashed >= 2

    while not enough():
        sample = spawn_sample(workload, seed, *extra)
        if sample is None:
            crashed += 1
        else:
            samples.append(sample)
    # a crashed sample counts as one attempted, failed unit
    attempted = sum(s["units"] for s in samples) + crashed
    failed = sum(len(s["failed"]) for s in samples) + crashed
    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": [s["failed"] for s in samples if s["failed"]],
        "end_to_end": {},
    }
    if samples:
        e2e = out["end_to_end"] = {
            m: summarize([s[m] for s in samples], units[m]) for m in SAMPLED
        }
        # the body's time: each unit's fastest sample (the spread fields
        # still describe the samples' body totals)
        for m in ("wall_s", "cpu_s"):
            e2e[m]["median"] = e2e[m]["value"]
            e2e[m]["value"] = fastest_units(samples, f"unit_{m}")
        out["end_to_end"]["ok_frac"] = {
            "value": 1.0 - failed / attempted, "unit": units["ok_frac"],
            "samples": len(samples),
        }
        out["stats_digest"] = samples[0]["stats_digest"]
        out["calib_s"] = statistics.median(s["calib_s"] for s in samples)
        out["versions"] = samples[0]["versions"]
    return out


def measure_traced(
    workload: str, seed: int, units: dict[str, str],
    untraced_wall_s: float | None, extra: list[str],
) -> dict:
    """One sample under the tracer, next to an untraced reference wall."""
    if untraced_wall_s is None:
        ref = spawn_sample(workload, seed, *extra)
        untraced_wall_s = ref["wall_s"] if ref else None
    os.makedirs(RESULTS, exist_ok=True)
    args = ["--traced", "--spans-out",
            os.path.join(RESULTS, f"spans-{workload}.npz"), *extra]
    if untraced_wall_s:
        args += ["--untraced-wall-s", repr(untraced_wall_s)]
    sample = spawn_sample(workload, seed, *args)
    if sample is None:
        return {"attempted": 1, "failed": 1, "per_layer": {}}
    return {
        "attempted": sample["units"],
        "failed": len(sample["failed"]),
        "failures": [sample["failed"]] if sample["failed"] else [],
        "traced_wall_s": sample["wall_s"],
        "per_layer": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in sample["layers"].items()
        },
    }


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def print_table(name: str, result: dict, per_layer_names: list[str]) -> None:
    print(f"\n== {name}")
    for metric, m in result.get("end_to_end", {}).items():
        spread = (
            f"  [samples: min {m['min']:.6g}  median "
            f"{m.get('median', m['value']):.6g}  max {m['max']:.6g}]"
            if "min" in m else ""
        )
        print(f"  {metric:<14} {m['value']:>14.6g} {m['unit']:<6} "
              f"n={m['samples']}{spread}")
    if "end_to_end" in result:
        print(f"  units failed   {result['failed']}/{result['attempted']}"
              f"   stats_digest {result.get('stats_digest', '-')[:16]}")
    for failures in result.get("failures", []):
        for key, why in failures.items():
            print(f"  FAILED {key}: {why}")
    layers = result.get("per_layer", {})
    if layers:
        wall = result["traced_wall_s"]
        print(f"  -- layers (traced body {wall:.3f} s)")
        print(f"  {'layer':<20} {'self_s':>9} {'share':>7} {'calls':>9}")
        rows = sorted(
            (n[:-7] for n in layers if n.endswith(".self_s")),
            key=lambda layer: -layers[f"{layer}.self_s"]["value"],
        )
        for layer in rows:
            self_s = layers[f"{layer}.self_s"]["value"]
            calls = layers[f"{layer}.calls"]["value"]
            if calls:
                print(f"  {layer:<20} {self_s:>9.4f} {self_s / wall:>6.1%} "
                      f"{calls:>9}")
        for n in per_layer_names:
            if n.endswith((".self_s", ".calls")) or not layers[n]["value"]:
                continue
            print(f"  {n:<42} {layers[n]['value']:>14.6g} {layers[n]['unit']}")


def main(argv: list[str] | None = None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found next to perfbench/ — run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", metavar="NAME",
                    choices=[*names, "selftest_fail"],
                    help=f"one of {names} (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=contract["run_seconds"],
                    help="body seconds to measure per workload")
    ap.add_argument("--repeats", type=int, metavar="K",
                    help="take exactly K samples instead of --seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics only, 1: layer table only")
    ap.add_argument("--traced-only", dest="trace", action="store_const",
                    const=1, help="same as --trace 1")
    ap.add_argument("--untraced-only", dest="trace", action="store_const",
                    const=0, help="same as --trace 0")
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (not comparable with real runs)")
    ap.add_argument("--out", default=os.path.join(RESULTS, "latest.json"))
    args = ap.parse_args(argv)

    e2e_units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    extra = ["--tiny"] if args.tiny else []
    doc = {
        "schema_version": SCHEMA_VERSION,
        "git": git_sha(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "tiny": args.tiny,
        "workloads": {},
    }
    result: dict = {}
    for name in args.workload or names:
        result = {}
        if args.trace != 1:
            result = measure_untraced(
                name, args.seed, e2e_units, args.seconds, args.repeats, extra
            )
        if args.trace != 0:
            # like for like: one traced body total against the median total
            wall = result.get("end_to_end", {}).get("wall_s", {}).get("median")
            traced = measure_traced(name, args.seed, layer_units, wall, extra)
            if not result:
                result = traced
            else:
                result["per_layer"] = traced["per_layer"]
                result["traced_wall_s"] = traced.get("traced_wall_s")
        doc["workloads"][name] = result
        print_table(name, result, list(layer_units))
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")

    if args.trace is None or len(doc["workloads"]) != 1:
        return 0
    # the BENCHMARK.json contract: one JSON object as the last line
    metrics = result.get("end_to_end" if args.trace == 0 else "per_layer", {})
    declared = e2e_units if args.trace == 0 else layer_units
    if set(metrics) != set(declared):
        print(f"perfbench: metrics measured and declared differ: "
              f"{sorted(set(metrics) ^ set(declared))}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            n: {"value": m["value"], "unit": m["unit"]}
            for n, m in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
