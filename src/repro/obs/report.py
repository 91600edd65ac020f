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

Every text table of the system is drawn by :func:`render_table` from
declared :class:`Column` objects: a new section is columns plus a row map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class Column:
    """One declared column of a text table: its header, its width and
    alignment (``"<"`` or ``">"``), the format spec and suffix of a
    non-string cell, the separator written before it, and what its
    cell reads from a row — the row's field (or key) named ``get``, or
    ``get(row)``; the field named like the header by default.  A string
    cell is written as is, ``None`` as ``-``."""

    header: str
    width: int = 0
    align: str = "<"
    fmt: str = ""
    suffix: str = ""
    sep: str = " "
    get: str | Callable[[object], object] | None = None

    def value(self, row: object) -> object:
        get = self.get or self.header
        if callable(get):
            return get(row)
        return row[get] if isinstance(row, Mapping) else getattr(row, get)

    def cell(self, value: object) -> str:
        if value is None:
            value = "-"
        elif not isinstance(value, str):
            value = format(value, self.fmt) + self.suffix
        return f"{value:{self.align}{self.width}}"


def render_table(
    title: str | None,
    columns: Sequence[Column],
    rows: Iterable[object],
    total: object = None,
    *,
    rule: bool = True,
) -> list[str]:
    """The one text-table renderer: an optional title line, the header,
    a dash rule as wide as the header (unless ``rule`` is false), one
    line per row and, when given, a rule and the ``total`` row.  A row
    that is a tuple or list holds its cells in column order; any other
    row (a record, a payload dict) is read by each column's getter."""

    def line(row) -> str:
        if not isinstance(row, (tuple, list)):
            row = [c.value(row) for c in columns]
        cells = [c.cell(v) for c, v in zip(columns, row)]
        return cells[0] + "".join(
            c.sep + v for c, v in zip(columns[1:], cells[1:])
        )

    header = line([c.header for c in columns])
    dashes = "-" * len(header)
    lines = [title] if title else []
    lines += [header, *([dashes] if rule else []), *map(line, rows)]
    if total is not None:
        lines += [dashes, line(total)]
    return lines


class _Record:
    """The report records' payload form: their fields, as a dict."""

    def to_dict(self) -> dict[str, object]:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: Mapping[str, object]):
        return cls(**d)


@dataclass
class NestIORecord(_Record):
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


@dataclass
class RedistRecord(_Record):
    """Redistribution-phase traffic of one two-phase collective nest."""

    nest: str
    messages: int = 0
    elements: int = 0
    time_s: float = 0.0


@dataclass
class CostDriftRecord(_Record):
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


@dataclass
class OptimalityRecord(_Record):
    """Achieved-vs-optimal telemetry for one nest.

    Pairs the static I/O lower bound from :mod:`repro.bounds` (and the
    cost model's element estimate) with the nest's measured transfers,
    aggregated over *all* of the nest's records — every rank, array and
    path — so :func:`report_totals` of the rows equals it of the records
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
        return {k: [r.to_dict() for r in v] for k, v in vars(self).items()}

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "IOReport":
        return cls(*(
            [record.from_dict(r) for r in d.get(key, [])]
            for key, record in (
                ("records", NestIORecord), ("redist", RedistRecord),
                ("drift", CostDriftRecord), ("optimality", OptimalityRecord),
            )
        ))


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


#: the exact call/element counters every view of the records sums
COUNTERS = ("read_calls", "write_calls", "elements_read", "elements_written")


def report_totals(records: Iterable[object]) -> dict[str, int]:
    """Exact call/element totals over the records — must equal the run's
    folded :class:`IOStats` counters, for the records and for each table
    derived from them (drift, optimality).

    Accepts mixed iterables: anything without the call counters (e.g. a
    :class:`RedistRecord` — redistribution traffic is interconnect
    messages, not file I/O) is skipped rather than crashing, so callers
    can pass a report's full record soup."""
    out = dict.fromkeys(COUNTERS, 0)
    for r in records:
        if hasattr(r, "read_calls"):
            for k in COUNTERS:
                out[k] += getattr(r, k)
    return out


def _fold(
    records: Iterable[NestIORecord],
    key: Callable[[NestIORecord], object],
    start: Callable[[NestIORecord], object],
) -> dict:
    """The one fold of per-rank records into table rows: one row per
    ``key(record)`` in first-seen order, begun by ``start(record)`` with
    zero counters; each record adds its :data:`COUNTERS` (and its
    ``io_time_s``, where the row has one), and a row whose records ran
    on different paths is ``"mixed"``."""
    rows: dict = {}
    for r in records:
        row = rows.get(key(r))
        if row is None:
            row = rows[key(r)] = start(r)
        for k in COUNTERS:
            setattr(row, k, getattr(row, k) + getattr(r, k))
        if hasattr(row, "io_time_s"):
            row.io_time_s += r.io_time_s
        if row.path != r.path:
            row.path = "mixed"
    return rows


def _by_array(r: NestIORecord) -> tuple[str, str]:
    return r.nest, r.array


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
    rows = _fold(records, _by_array, lambda r: CostDriftRecord(
        r.nest, r.array, predictions.get(r.nest, {}).get(r.array),
        path=r.path,
    ))
    for nest, per_array in predictions.items():
        for array, predicted in per_array.items():
            if (nest, array) not in rows:
                rows[nest, array] = CostDriftRecord(
                    nest, array, predicted, path="unexecuted"
                )
    return list(rows.values())


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
    quantity anyway.  Every record contributes to some row, so the
    rows' :func:`report_totals` equal the records' exactly; bounds for
    nests the run never executed are appended with zero measured
    transfers and ``path="unexecuted"``.
    """
    modeled = modeled or {}

    def row(nest: str, path: str) -> OptimalityRecord:
        b = bounds.get(nest, {})
        bound = b.get("bound_elements")
        return OptimalityRecord(
            nest=nest,
            rule=b.get("rule"),
            bound_elements=None if bound is None else float(bound),
            modeled_elements=modeled.get(nest),
            path=path,
            detail=str(b.get("detail", "")),
        )

    rows = _fold(records, lambda r: r.nest, lambda r: row(r.nest, r.path))
    for nest in bounds:
        if nest not in rows:
            rows[nest] = row(nest, "unexecuted")
    return list(rows.values())


def _cross_check(
    label: str, records: Iterable[object], stats: Mapping[str, object] | None
) -> list[str]:
    """The "measured totals vs folded IOStats" line of a view (none
    without the run's stats)."""
    if stats is None:
        return []
    totals = report_totals(records)
    match = all(totals[k] == stats.get(k) for k in totals)
    return [
        f"{label} vs folded IOStats: "
        + ("exact match" if match else f"MISMATCH (stats={stats})")
    ]


_NEST, _ARRAY, _PATH = Column("nest", 16), Column("array", 12), Column("path", 11)

#: the per-nest × per-array table of :class:`NestIORecord` rows
NEST_COLUMNS = (
    _NEST, _ARRAY, _PATH, Column("reads", 8, ">", get="read_calls"),
    Column("writes", 8, ">", get="write_calls"),
    Column("elems read", 12, ">", get="elements_read"),
    Column("elems written", 14, ">", get="elements_written"),
)
DRIFT_COLUMNS = (
    _NEST, _ARRAY, _PATH,
    Column("predicted", 10, ">", ".1f", get="predicted_calls"),
    Column("measured", 9, ">", get="measured_calls"),
    Column("error", 8, ">", "+.1%", get="error"),
)
OPTIMALITY_COLUMNS = (
    _NEST, Column("rule", 22, get=lambda r: r.rule or None), _PATH,
    Column("bound", 10, ">", ".0f", get="bound_elements"),
    Column("modeled", 10, ">", ".0f", get="modeled_elements"),
    Column("measured", 10, ">", get="measured_elements"),
    Column("ratio", 7, ">", ".2f", "x"),
)
#: the autotuning knob table of ``Autotuner.summary()["knobs"]`` rows
KNOB_COLUMNS = (
    Column("knob", 14, get=lambda k: str(k.get("knob"))),
    Column("chosen", 40, get=lambda k: _clip(str(k.get("chosen")), 40)),
    Column("revert costs", 12, ">", "+.4f", "s",
           get=lambda k: float(k.get("delta_s", 0.0))),
)


def _stat(tenant: Mapping[str, object], *keys: str) -> int:
    st = tenant.get("stats") or {}
    return sum(int(st.get(k, 0)) for k in keys)


#: every column a per-tenant serving table can show, of
#: ``ServeResult.summary_dict()["tenants"]`` rows (:func:`render_tenants`)
TENANT_COLUMNS = {c.header: c for c in (
    Column("tenant", 12),
    Column("jobs", 5, ">", get=lambda t: t.get("submitted", 0)),
    Column("done", 5, ">", get=lambda t: t.get("completed", 0)),
    Column("failed", 6, ">", get=lambda t: t.get("failed", 0)),
    Column("retries", 7, ">", get=lambda t: t.get("retries", 0)),
    Column("queued_s", 9, ">", ".3f",
           get=lambda t: float(t.get("queue_delay_s", 0.0))),
    Column("calls", 8, ">", get=lambda t: _stat(t, "read_calls", "write_calls")),
    Column("elements", 12, ">",
           get=lambda t: _stat(t, "elements_read", "elements_written")),
)}


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
    # the profiler's own renderer, so this and `obs top` agree
    from .profile import render_profile

    rows = _fold(report.records, _by_array, lambda r: NestIORecord(
        r.nest, r.array, path=r.path
    ))
    lines = render_table(
        None, NEST_COLUMNS, rows.values(),
        ("TOTAL", "", "", *report_totals(report.records).values()),
    )
    for rd in report.redist:
        lines.append(
            f"redist {rd.nest}: {rd.messages} messages, "
            f"{rd.elements} elements, {rd.time_s:.3f}s"
        )
    lines += _cross_check("cross-check", report.records, stats)
    sections = []
    if stats is not None and "retries" in stats:
        # IOStats serializes its fault counters only when something
        # fired, so this section appears exactly for fault-active runs
        sections.append(_render_resilience(stats))
    if report.drift:
        sections.append(_render_drift(report.drift, stats))
    if report.optimality:
        sections.append(render_optimality(report.optimality, stats))
    if serve:
        sections.append(_render_serve(serve))
    if autotune:
        sections.append(_render_autotune(autotune))
    if profile:
        sections.append(render_profile(profile).splitlines())
    if metrics:
        sections.append(_render_metrics(metrics))
    for section in sections:
        lines += ["", *section]
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
        lines += render_table(None, KNOB_COLUMNS, knobs)
    for ev in autotune.get("history") or []:
        lines.append(
            f"event: {ev.get('event', '?')} — {ev.get('detail', '')}"
        )
    return lines


def _clip(text: str, width: int) -> str:
    return text if len(text) <= width else text[: width - 3] + "..."


def render_tenants(
    title: str | None,
    tenants: Mapping[str, Mapping[str, object]],
    headers: Sequence[str],
    *,
    total: bool = False,
) -> list[str]:
    """The per-tenant table of a serving run from its summary payload
    (``ServeResult.summary_dict()["tenants"]``): the ``headers`` columns
    of :data:`TENANT_COLUMNS`, and with ``total`` a TOTAL row of the
    calls and elements.  Every number is read straight from the
    payload, whose per-tenant stats are the exact fold of the tenant's
    per-job :class:`~repro.runtime.stats.IOStats`."""
    columns = [TENANT_COLUMNS[h] for h in headers]
    rows = [{"tenant": name, **t} for name, t in tenants.items()]
    sums = {"tenant": "TOTAL"} | {
        h: sum(TENANT_COLUMNS[h].value(r) for r in rows)
        for h in ("calls", "elements")
    }
    return render_table(
        title, columns, rows,
        [sums.get(h, "") for h in headers] if total else None,
    )


def _render_serve(serve: Mapping[str, object]) -> list[str]:
    """The multi-tenant serving section: one row per tenant with job
    outcomes, queueing delay and the tenant's folded I/O counters —
    the same exactness contract as the nest table above."""
    policy = serve.get("policy")
    if isinstance(policy, Mapping):
        policy = " ".join(f"{k}={v}" for k, v in sorted(policy.items()))
    lines = render_tenants(
        "serving (repro.serve)" + (f" — {policy}" if policy else ""),
        serve.get("tenants") or {},
        ("tenant", "jobs", "done", "failed", "queued_s", "calls", "elements"),
        total=True,
    )
    if serve.get("makespan_s") is not None:
        lines.append(f"served makespan: {float(serve['makespan_s']):.3f}s")
    return lines + render_cache_line(serve.get("cache"))


def render_cache_line(cache: Mapping[str, object] | None) -> list[str]:
    """The shared tile cache's line of a serving summary (none without
    a cache)."""
    if not cache:
        return []
    return [
        f"shared cache: hits={cache.get('hits', 0)} "
        f"misses={cache.get('misses', 0)} "
        f"evictions={cache.get('evictions', 0)} "
        f"saved={float(cache.get('saved_io_s', 0.0)):.3f}s"
    ]


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
    lines = render_table(
        "cost-model drift (predicted vs measured I/O calls)", DRIFT_COLUMNS,
        drift,
    )
    errors = [abs(r.error) for r in drift if r.error is not None]
    if errors:
        lines.append(
            f"model error: mean |e|={100.0 * sum(errors) / len(errors):.1f}% "
            f"max |e|={100.0 * max(errors):.1f}% over {len(errors)} pair(s)"
        )
    return lines + _cross_check("drift measured totals", drift, stats)


def render_optimality(
    optimality: Sequence[OptimalityRecord], stats: Mapping[str, object] | None
) -> list[str]:
    """The achieved-vs-lower-bound table: per nest the derivation rule,
    static bound, modeled and measured element transfers and the
    achieved/bound ratio (1.0 = I/O-optimal), plus the same exact
    measured-totals cross-check the other report views pin."""
    lines = render_table(
        "optimality (achieved vs I/O lower bound, repro.bounds)",
        OPTIMALITY_COLUMNS, optimality,
    )
    bounded = [r for r in optimality if r.ratio is not None]
    if bounded:
        bound_sum = sum(r.bound_elements for r in bounded)
        measured_sum = sum(r.measured_elements for r in bounded)
        lines.append(
            f"run ratio: {measured_sum / bound_sum:.2f}x over bounded nests "
            f"(bound={bound_sum:.0f}, measured={measured_sum})"
        )
    return lines + _cross_check(
        "optimality measured totals", optimality, stats
    )


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
