"""Compare two perfbench result files, one row per workload x metric.

    python3 perfbench/compare.py A.json B.json

A is the base: every ratio is B's median over A's.  A verdict is
``better`` / ``same`` / ``worse`` by the metric's bound in
BENCHMARK.json, or ``unresolved`` when either side's spread (quartile
distance over median) is wider than the bound and the two sides' runs
overlap.  Workloads are never averaged together.  Exit 1 on any
``worse`` or any rise in the failed fraction.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``a``/``b``: one metric's summary on each side (value + spread)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
    spread = max(
        (m["q3"] - m["q1"]) / abs(m["value"]) if "q1" in m else 0.0
        for m in (a, b)
    )
    overlap = (
        "min" in a and "min" in b
        and a["min"] <= b["max"] and b["min"] <= a["max"]
    )
    if spread > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def fail_frac(w: dict) -> float:
    return w["failed"] / w["attempted"] if w.get("attempted") else 0.0


def compare(a_doc: dict, b_doc: dict, contract: dict) -> tuple[list[str], bool]:
    """Report lines, and whether B regressed."""
    lines = [
        f"{'workload':<16} {'metric':<13} {'A':>12} {'B':>12} "
        f"{'B/A':>8} {'bound':>7}  verdict"
    ]
    regressed = False
    for name in a_doc["workloads"]:
        wa, wb = a_doc["workloads"][name], b_doc["workloads"].get(name)
        if wb is None:
            lines.append(f"{name:<16} missing from B")
            continue
        for m in contract["end_to_end"]:
            a = wa.get("end_to_end", {}).get(m["name"])
            b = wb.get("end_to_end", {}).get(m["name"])
            if a is None or b is None:
                continue
            v = verdict(a, b, m["better"], m["bound"])
            regressed |= v == "worse"
            lines.append(
                f"{name:<16} {m['name']:<13} {a['value']:>12.6g} "
                f"{b['value']:>12.6g} {b['value'] / a['value']:>8.4f} "
                f"{m['bound']:>7.3g}  {v}"
            )
        if fail_frac(wb) > fail_frac(wa):
            regressed = True
            lines.append(
                f"{name:<16} failed fraction rose: "
                f"{fail_frac(wa):.4f} -> {fail_frac(wb):.4f}"
            )
        if "stats_digest" in wa and "stats_digest" in wb:
            same = wa["stats_digest"] == wb["stats_digest"]
            lines.append(
                f"{name:<16} stats_digest  "
                f"{'identical' if same else 'DIFFERS'}"
            )
        # counts repeat exactly between two runs of one program
        la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
        moved = [
            f"{n} {la[n]['value']} -> {lb[n]['value']}"
            for n in la
            if n in lb and la[n]["unit"] == "count"
            and la[n]["value"] != lb[n]["value"]
        ]
        for line in moved:
            lines.append(f"{name:<16} count moved: {line}")
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as f:
            docs.append(json.load(f))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    lines, regressed = compare(docs[0], docs[1], contract)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
