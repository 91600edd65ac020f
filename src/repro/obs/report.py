"""Per-nest × per-array I/O breakdown records and their text report.

The records are emitted at the exact points the run's
:class:`~repro.runtime.stats.IOStats` are built — the executor's per-nest
accounting and the collective layer's independent / two-phase pricing —
so summing the records reproduces the folded stats *exactly*, call for
call and element for element.  That invariant is what makes the report
trustworthy: the table is the stats, just attributed.

``render_report`` prints the per-nest × per-array table (Tables 1–3 of
the paper live on exactly this attribution); ``report_totals`` sums the
records for cross-checking against :meth:`IOStats.to_dict` output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .profile import render_profile


@dataclass
class NestIORecord:
    """I/O attributed to one (nest, array/file) pair, all ranks of one
    compute node (``node``) or aggregated (``node=None``)."""

    nest: str
    array: str
    read_calls: int = 0
    write_calls: int = 0
    elements_read: int = 0
    elements_written: int = 0
    #: estimated serial seconds for these calls (recomputed from the cost
    #: model; informational — the exact equality contract covers calls
    #: and elements only, float addition order differs)
    io_time_s: float = 0.0
    node: int | None = None
    #: "independent" | "two-phase" (collective runs) | "direct"
    path: str = "direct"

    def to_dict(self) -> dict[str, object]:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "NestIORecord":
        return cls(**d)


@dataclass
class RedistRecord:
    """Redistribution-phase traffic of one two-phase collective nest."""

    nest: str
    messages: int = 0
    elements: int = 0
    time_s: float = 0.0

    def to_dict(self) -> dict[str, object]:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "RedistRecord":
        return cls(**d)


@dataclass
class CostDriftRecord:
    """Predicted-vs-measured I/O for one (nest, array) pair.

    ``predicted_calls`` is the optimizer's relative I/O estimate
    (:func:`repro.optimizer.cost.estimate_nest_io_breakdown`) for the
    nest *as executed* — transformed iteration space, concrete file
    layouts.  The measured side is the exact aggregation of the run's
    :class:`NestIORecord` entries, so summing drift records reproduces
    the folded :class:`~repro.runtime.stats.IOStats` call for call.
    ``predicted_calls`` is ``None`` when the cost model has no estimate
    for the pair (e.g. chunked group files the linear model cannot
    attribute) — such rows still carry their measured totals.
    """

    nest: str
    array: str
    predicted_calls: float | None
    read_calls: int = 0
    write_calls: int = 0
    elements_read: int = 0
    elements_written: int = 0
    io_time_s: float = 0.0
    path: str = "direct"

    @property
    def measured_calls(self) -> int:
        return self.read_calls + self.write_calls

    @property
    def error(self) -> float | None:
        """Signed relative model error, ``(predicted - measured) /
        measured`` — negative when the model under-predicts.  ``None``
        without a prediction or without measured calls to compare to."""
        if self.predicted_calls is None or self.measured_calls == 0:
            return None
        return (self.predicted_calls - self.measured_calls) / self.measured_calls

    def to_dict(self) -> dict[str, object]:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "CostDriftRecord":
        return cls(**d)


@dataclass
class OptimalityRecord:
    """Achieved-vs-optimal telemetry for one nest.

    Pairs the static I/O lower bound from :mod:`repro.bounds` (and the
    cost model's element estimate) with the nest's measured transfers,
    aggregated over *all* of the nest's records — every rank, array and
    path — so :func:`optimality_totals` equals :func:`report_totals`
    (and hence the folded :class:`IOStats`) exactly.
    """

    nest: str
    #: derivation rule tag from :mod:`repro.bounds.model`, None when the
    #: run carried no bound for this nest
    rule: str | None = None
    bound_elements: float | None = None
    modeled_elements: float | None = None
    read_calls: int = 0
    write_calls: int = 0
    elements_read: int = 0
    elements_written: int = 0
    path: str = "direct"
    detail: str = ""

    @property
    def measured_elements(self) -> int:
        return self.elements_read + self.elements_written

    @property
    def ratio(self) -> float | None:
        """Achieved/bound — >= 1 by the bound's soundness; 1 is optimal."""
        if not self.bound_elements or self.bound_elements <= 0:
            return None
        return self.measured_elements / self.bound_elements

    def to_dict(self) -> dict[str, object]:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "OptimalityRecord":
        return cls(**d)


@dataclass
class IOReport:
    """The report section of an exported trace."""

    records: list[NestIORecord] = field(default_factory=list)
    redist: list[RedistRecord] = field(default_factory=list)
    #: cost-model validation: one row per (nest, array), built by
    #: :func:`build_drift` once the run's records are complete
    drift: list[CostDriftRecord] = field(default_factory=list)
    #: achieved-vs-lower-bound telemetry: one row per nest, built by
    #: :func:`build_optimality` from the ``repro.bounds`` pass
    optimality: list[OptimalityRecord] = field(default_factory=list)

    def to_dict(self) -> dict[str, object]:
        return {
            "records": [r.to_dict() for r in self.records],
            "redist": [r.to_dict() for r in self.redist],
            "drift": [r.to_dict() for r in self.drift],
            "optimality": [r.to_dict() for r in self.optimality],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "IOReport":
        return cls(
            [NestIORecord.from_dict(r) for r in d.get("records", [])],
            [RedistRecord.from_dict(r) for r in d.get("redist", [])],
            [CostDriftRecord.from_dict(r) for r in d.get("drift", [])],
            [OptimalityRecord.from_dict(r) for r in d.get("optimality", [])],
        )


def io_record(
    params,
    nest: str,
    array: str,
    node: int,
    path: str,
    counts: Sequence[int],
    weight: int = 1,
) -> NestIORecord:
    """The one constructor of per-array records: exact ``counts`` —
    ``(read_calls, write_calls, elements_read, elements_written)`` of
    accounted calls, repeated ``weight`` times — plus ``io_time_s``
    re-priced from them by the cost model ``params``
    (:class:`~repro.runtime.params.MachineParams`; informational)."""
    rc, wc, er, ew = counts
    return NestIORecord(
        nest, array, rc * weight, wc * weight, er * weight, ew * weight,
        params.batch_time(rc + wc, er + ew) * weight, node, path,
    )


def nest_records(
    params,
    nest_runs: Iterable[object],
    file_names: Mapping[int, str],
    *,
    node: int = 0,
    path: str = "direct",
) -> list[NestIORecord]:
    """Per-nest × per-array I/O records from the recorded call traces of
    executed nests (:class:`~repro.engine.executor.NestRun`).

    Each row of a nest's call table
    (:class:`~repro.runtime.stats.CallTable`) is one accounted I/O call,
    so an integer scatter-add per ``(file_base, direction)``, scaled by
    ``trace_weight``, reproduces the nest's :class:`IOStats`
    call/element counters *exactly* — the invariant the obs report's
    cross-check relies on.  Files appear in first-call order."""
    out: list[NestIORecord] = []
    for nr in nest_runs:
        t = nr.trace
        if t is None:
            continue
        w = max(1, nr.trace_weight)
        bases, first, file = np.unique(
            t.base, return_index=True, return_inverse=True
        )
        counts = np.zeros((bases.size, 4), dtype=np.int64)
        k = t.is_write.astype(np.int64)  # io_record order: reads 0/2, writes 1/3
        np.add.at(counts, (file, k), w)
        np.add.at(counts, (file, 2 + k), t.length * w)
        for f in np.argsort(first).tolist():
            base = int(bases[f])
            out.append(io_record(
                params, nr.nest_name, file_names.get(base, f"file@{base}"),
                node, path, counts[f].tolist(),
            ))
    return out


def report_totals(records: Iterable[object]) -> dict[str, int]:
    """Exact call/element totals over the records — must equal the run's
    folded :class:`IOStats` counters.

    Accepts mixed iterables: anything without the call counters (e.g. a
    :class:`RedistRecord` — redistribution traffic is interconnect
    messages, not file I/O) is skipped rather than crashing, so callers
    can pass a report's full record soup."""
    out = {
        "read_calls": 0,
        "write_calls": 0,
        "elements_read": 0,
        "elements_written": 0,
    }
    for r in records:
        if not hasattr(r, "read_calls"):
            continue
        out["read_calls"] += r.read_calls
        out["write_calls"] += r.write_calls
        out["elements_read"] += r.elements_read
        out["elements_written"] += r.elements_written
    return out


def build_drift(
    records: Sequence[NestIORecord],
    predictions: Mapping[str, Mapping[str, float]],
) -> list[CostDriftRecord]:
    """Pair the run's measured per-(nest, array) I/O with the cost
    model's predictions.

    Every aggregated (nest, array) row of ``records`` yields exactly one
    drift record — predicted or not — so the drift table's measured
    totals equal :func:`report_totals` (and hence the folded stats)
    *exactly* on every path.  Predictions with no measured counterpart
    (a nest the run never executed) are appended with zero measured
    I/O so the divergence is visible rather than silently dropped.
    """
    rows = _aggregate(records)
    out: list[CostDriftRecord] = []
    seen: set[tuple[str, str]] = set()
    for (nest, array), row in rows.items():
        predicted = predictions.get(nest, {}).get(array)
        seen.add((nest, array))
        out.append(
            CostDriftRecord(
                nest=nest,
                array=array,
                predicted_calls=predicted,
                read_calls=row.read_calls,
                write_calls=row.write_calls,
                elements_read=row.elements_read,
                elements_written=row.elements_written,
                io_time_s=row.io_time_s,
                path=row.path,
            )
        )
    for nest, per_array in predictions.items():
        for array, predicted in per_array.items():
            if (nest, array) not in seen:
                out.append(
                    CostDriftRecord(
                        nest=nest, array=array,
                        predicted_calls=predicted, path="unexecuted",
                    )
                )
    return out


def drift_totals(drift: Iterable[CostDriftRecord]) -> dict[str, int]:
    """Measured call/element totals of the drift table — the acceptance
    contract pins these equal to the run's folded :class:`IOStats`."""
    return report_totals(drift)


def build_optimality(
    records: Sequence[NestIORecord],
    bounds: Mapping[str, Mapping[str, object]],
    modeled: Mapping[str, float] | None = None,
) -> list[OptimalityRecord]:
    """Pair the run's measured per-nest transfers with the static lower
    bounds (``bounds``: nest → :meth:`repro.bounds.NestBound.to_dict`
    payload) and the cost model's element estimates.

    Aggregation is per *nest* (not per array): ``h-opt`` group files
    surface as ``group:<g>`` pseudo-arrays, and the bound is a per-nest
    quantity anyway.  Every record contributes to some row, so
    :func:`optimality_totals` equals :func:`report_totals` exactly;
    bounds for nests the run never executed are appended with zero
    measured transfers and ``path="unexecuted"``.
    """
    modeled = modeled or {}
    rows: dict[str, OptimalityRecord] = {}
    for r in records:
        row = rows.get(r.nest)
        if row is None:
            b = bounds.get(r.nest, {})
            bound = b.get("bound_elements")
            rows[r.nest] = row = OptimalityRecord(
                nest=r.nest,
                rule=b.get("rule"),
                bound_elements=None if bound is None else float(bound),
                modeled_elements=modeled.get(r.nest),
                path=r.path,
                detail=str(b.get("detail", "")),
            )
        row.read_calls += r.read_calls
        row.write_calls += r.write_calls
        row.elements_read += r.elements_read
        row.elements_written += r.elements_written
        if row.path != r.path:
            row.path = "mixed"
    for nest, b in bounds.items():
        if nest not in rows:
            bound = b.get("bound_elements")
            rows[nest] = OptimalityRecord(
                nest=nest,
                rule=b.get("rule"),
                bound_elements=None if bound is None else float(bound),
                modeled_elements=modeled.get(nest),
                path="unexecuted",
                detail=str(b.get("detail", "")),
            )
    return list(rows.values())


def optimality_totals(optimality: Iterable[OptimalityRecord]) -> dict[str, int]:
    """Measured call/element totals of the optimality table — pinned
    equal to the run's folded :class:`IOStats`, like the other views."""
    return report_totals(optimality)


def _aggregate(
    records: Sequence[NestIORecord],
) -> dict[tuple[str, str], NestIORecord]:
    """Collapse per-rank records into (nest, array) rows, issue order."""
    rows: dict[tuple[str, str], NestIORecord] = {}
    for r in records:
        key = (r.nest, r.array)
        row = rows.get(key)
        if row is None:
            rows[key] = NestIORecord(
                r.nest, r.array, r.read_calls, r.write_calls,
                r.elements_read, r.elements_written, r.io_time_s,
                node=None, path=r.path,
            )
        else:
            row.read_calls += r.read_calls
            row.write_calls += r.write_calls
            row.elements_read += r.elements_read
            row.elements_written += r.elements_written
            row.io_time_s += r.io_time_s
            if row.path != r.path:
                row.path = "mixed"
    return rows


def render_report(
    report: IOReport,
    stats: Mapping[str, object] | None = None,
    metrics: Mapping[str, Mapping[str, object]] | None = None,
    *,
    serve: Mapping[str, object] | None = None,
    profile: Mapping[str, object] | None = None,
    autotune: Mapping[str, object] | None = None,
    sim: Mapping[str, object] | None = None,
) -> str:
    """The per-nest × per-array breakdown table, plus the redistribution
    lines, the cost-model drift section (when the report carries drift
    records), an optional metrics dump with percentile summaries, a
    per-tenant serving section (``serve``, a
    :meth:`repro.serve.ServeResult.summary_dict` payload), an
    autotuning section (``autotune``, a
    :meth:`repro.autotune.Autotuner.summary` payload), a hotspot
    section (``profile``, a
    :meth:`repro.obs.profile.ProfileResult.to_dict` payload), the event
    simulator's summary line (``sim``), and — when the run's folded
    stats are available — an explicit totals cross-check."""
    rows = _aggregate(report.records)
    header = (
        f"{'nest':<16} {'array':<12} {'path':<11} "
        f"{'reads':>8} {'writes':>8} {'elems read':>12} {'elems written':>14}"
    )
    lines = [header, "-" * len(header)]
    for (nest, array), r in rows.items():
        lines.append(
            f"{nest:<16} {array:<12} {r.path:<11} "
            f"{r.read_calls:>8} {r.write_calls:>8} "
            f"{r.elements_read:>12} {r.elements_written:>14}"
        )
    totals = report_totals(report.records)
    lines.append("-" * len(header))
    lines.append(
        f"{'TOTAL':<16} {'':<12} {'':<11} "
        f"{totals['read_calls']:>8} {totals['write_calls']:>8} "
        f"{totals['elements_read']:>12} {totals['elements_written']:>14}"
    )
    for rd in report.redist:
        lines.append(
            f"redist {rd.nest}: {rd.messages} messages, "
            f"{rd.elements} elements, {rd.time_s:.3f}s"
        )
    if stats is not None:
        match = all(
            totals[k] == stats.get(k) for k in totals
        )
        lines.append(
            "cross-check vs folded IOStats: "
            + ("exact match" if match else f"MISMATCH (stats={stats})")
        )
    if stats is not None and "retries" in stats:
        # IOStats serializes its fault counters only when something
        # fired, so this section appears exactly for fault-active runs
        lines.append("")
        lines.extend(_render_resilience(stats))
    if report.drift:
        lines.append("")
        lines.extend(_render_drift(report.drift, stats))
    if report.optimality:
        lines.append("")
        lines.extend(_render_optimality(report.optimality, stats))
    if serve:
        lines.append("")
        lines.extend(_render_serve(serve))
    if autotune:
        lines.append("")
        lines.extend(_render_autotune(autotune))
    if profile:
        lines.append("")
        # the profiler's own renderer, so this and `obs top` agree
        lines.extend(render_profile(profile).splitlines())
    if metrics:
        lines.append("")
        lines.extend(_render_metrics(metrics))
    if sim:
        lines.append(
            f"event sim: makespan={sim['makespan_s']:.3f}s "
            f"waited={sim['waited_requests']} "
            f"(queue delay {sim['wait_time_s']:.3f}s)"
        )
    return "\n".join(lines)


def _render_autotune(autotune: Mapping[str, object]) -> list[str]:
    """The autotuning section: loop state, solver provenance, the
    predicted-vs-measured drift signal that drives recalibration, and
    one line per knob with the modeled cost of reverting it."""
    lines = [
        "autotuning (repro.autotune) — "
        f"state={autotune.get('state', '?')} "
        f"solver={autotune.get('solver', '?')}"
    ]
    pred = autotune.get("predicted_cost_s")
    if pred is not None:
        lines.append(f"predicted cost: {float(pred):.4f}s/node")
    meas = autotune.get("measured_io_s")
    if meas is not None:
        lines.append(f"measured I/O:   {float(meas):.4f}s/node")
    drift = autotune.get("cost_drift")
    if drift is not None:
        thr = autotune.get("drift_threshold")
        flag = ""
        if thr is not None:
            flag = " (over threshold)" if float(drift) > float(thr) \
                else " (within threshold)"
        lines.append(f"cost drift:     {float(drift):.3f}{flag}")
    err = autotune.get("max_call_error")
    if err is not None:
        lines.append(f"max call error: {float(err):.3f}")
    lines.append(
        f"recalibrations: {autotune.get('recalibrations', 0)}  "
        f"re-solves: {autotune.get('resolves', 0)}  "
        f"drift events: {autotune.get('drift_events', 0)}"
    )
    knobs = autotune.get("knobs") or []
    if knobs:
        header = f"{'knob':<14} {'chosen':<40} {'revert costs':>12}"
        lines += [header, "-" * len(header)]
        for k in knobs:
            chosen = str(k.get("chosen"))
            if len(chosen) > 40:
                chosen = chosen[:37] + "..."
            lines.append(
                f"{str(k.get('knob')):<14} {chosen:<40} "
                f"{float(k.get('delta_s', 0.0)):>+11.4f}s"
            )
    for ev in autotune.get("history") or []:
        lines.append(
            f"event: {ev.get('event', '?')} — {ev.get('detail', '')}"
        )
    return lines


def _render_serve(serve: Mapping[str, object]) -> list[str]:
    """The multi-tenant serving section: one row per tenant with job
    outcomes, queueing delay and the tenant's folded I/O counters.
    Every number is read straight from the scheduler's summary payload,
    whose per-tenant stats are the exact fold of the tenant's per-job
    :class:`~repro.runtime.stats.IOStats` — the same exactness contract
    as the nest table above."""
    header = (
        f"{'tenant':<12} {'jobs':>5} {'done':>5} {'failed':>6} "
        f"{'queued_s':>9} {'calls':>8} {'elements':>12}"
    )
    policy = serve.get("policy")
    if isinstance(policy, Mapping):
        policy = " ".join(f"{k}={v}" for k, v in sorted(policy.items()))
    lines = [
        "serving (repro.serve)" + (f" — {policy}" if policy else ""),
        header,
        "-" * len(header),
    ]
    tenants = serve.get("tenants") or {}
    total_calls = total_elems = 0
    for name, t in tenants.items():
        st = t.get("stats") or {}
        calls = int(st.get("read_calls", 0)) + int(st.get("write_calls", 0))
        elems = int(st.get("elements_read", 0)) + int(
            st.get("elements_written", 0)
        )
        total_calls += calls
        total_elems += elems
        lines.append(
            f"{name:<12} {t.get('submitted', 0):>5} "
            f"{t.get('completed', 0):>5} {t.get('failed', 0):>6} "
            f"{float(t.get('queue_delay_s', 0.0)):>9.3f} "
            f"{calls:>8} {elems:>12}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'TOTAL':<12} {'':>5} {'':>5} {'':>6} {'':>9} "
        f"{total_calls:>8} {total_elems:>12}"
    )
    if serve.get("makespan_s") is not None:
        lines.append(f"served makespan: {float(serve['makespan_s']):.3f}s")
    cache = serve.get("cache")
    if cache:
        lines.append(
            f"shared cache: hits={cache.get('hits', 0)} "
            f"misses={cache.get('misses', 0)} "
            f"evictions={cache.get('evictions', 0)} "
            f"saved={float(cache.get('saved_io_s', 0.0)):.3f}s"
        )
    return lines


def _render_resilience(stats: Mapping[str, object]) -> list[str]:
    """The fault/resilience summary.  Every number is read straight from
    the folded :class:`~repro.runtime.stats.IOStats` dict, so the
    section's totals match the stats by construction (the same exactness
    contract as the call/element cross-check above)."""
    return [
        "resilience (repro.faults)",
        f"  retries:        {stats.get('retries', 0)}",
        f"  failed calls:   {stats.get('failed_calls', 0)}",
        f"  hedged reads:   {stats.get('hedged_calls', 0)}",
        f"  degraded nests: {stats.get('degraded_nests', 0)}",
        f"  retry delay:    {float(stats.get('retry_delay_s', 0.0)):.6f}s",
    ]


def _render_drift(
    drift: Sequence[CostDriftRecord], stats: Mapping[str, object] | None
) -> list[str]:
    """The cost-model validation table: predicted vs measured calls per
    (nest, array) with the signed relative model error, plus the exact
    measured-totals cross-check the acceptance contract pins."""
    header = (
        f"{'nest':<16} {'array':<12} {'path':<11} "
        f"{'predicted':>10} {'measured':>9} {'error':>8}"
    )
    lines = ["cost-model drift (predicted vs measured I/O calls)", header,
             "-" * len(header)]
    errors: list[float] = []
    for r in drift:
        pred = "-" if r.predicted_calls is None else f"{r.predicted_calls:.1f}"
        err = r.error
        if err is None:
            err_s = "-"
        else:
            errors.append(abs(err))
            err_s = f"{100.0 * err:+.1f}%"
        lines.append(
            f"{r.nest:<16} {r.array:<12} {r.path:<11} "
            f"{pred:>10} {r.measured_calls:>9} {err_s:>8}"
        )
    if errors:
        lines.append(
            f"model error: mean |e|={100.0 * sum(errors) / len(errors):.1f}% "
            f"max |e|={100.0 * max(errors):.1f}% over {len(errors)} pair(s)"
        )
    totals = drift_totals(drift)
    if stats is not None:
        match = all(totals[k] == stats.get(k) for k in totals)
        lines.append(
            "drift measured totals vs folded IOStats: "
            + ("exact match" if match else f"MISMATCH (stats={stats})")
        )
    return lines


def _render_optimality(
    optimality: Sequence[OptimalityRecord], stats: Mapping[str, object] | None
) -> list[str]:
    """The achieved-vs-lower-bound table: per nest the derivation rule,
    static bound, modeled and measured element transfers and the
    achieved/bound ratio (1.0 = I/O-optimal), plus the same exact
    measured-totals cross-check the other report views pin."""
    header = (
        f"{'nest':<16} {'rule':<22} {'path':<11} "
        f"{'bound':>10} {'modeled':>10} {'measured':>10} {'ratio':>7}"
    )
    lines = ["optimality (achieved vs I/O lower bound, repro.bounds)", header,
             "-" * len(header)]
    bound_sum = 0.0
    measured_sum = 0
    for r in optimality:
        bound = "-" if r.bound_elements is None else f"{r.bound_elements:.0f}"
        modeled = "-" if r.modeled_elements is None else f"{r.modeled_elements:.0f}"
        ratio = r.ratio
        ratio_s = "-" if ratio is None else f"{ratio:.2f}x"
        if r.bound_elements and r.bound_elements > 0:
            bound_sum += r.bound_elements
            measured_sum += r.measured_elements
        lines.append(
            f"{r.nest:<16} {r.rule or '-':<22} {r.path:<11} "
            f"{bound:>10} {modeled:>10} {r.measured_elements:>10} {ratio_s:>7}"
        )
    if bound_sum > 0:
        lines.append(
            f"run ratio: {measured_sum / bound_sum:.2f}x over bounded nests "
            f"(bound={bound_sum:.0f}, measured={measured_sum})"
        )
    totals = optimality_totals(optimality)
    if stats is not None:
        match = all(totals[k] == stats.get(k) for k in totals)
        lines.append(
            "optimality measured totals vs folded IOStats: "
            + ("exact match" if match else f"MISMATCH (stats={stats})")
        )
    return lines


def _render_metrics(metrics: Mapping[str, Mapping[str, object]]) -> list[str]:
    """One line per instrument; histograms show the percentile summary
    (the values the regression gate compares, not raw buckets)."""
    lines = []
    for key, inst in sorted(metrics.items()):
        if inst.get("type") == "histogram":
            pct = "".join(
                f" {p}={inst[p]:.3g}"
                for p in ("p50", "p95", "p99")
                if inst.get(p) is not None
            )
            lines.append(
                f"metric {key}: count={inst['count']} "
                f"mean={inst['mean']:.3g} min={inst['min']} "
                f"max={inst['max']}{pct}"
            )
        else:
            lines.append(f"metric {key}: {inst['value']}")
    return lines
