"""Unified observability: tracing, metrics and profiling (``repro.obs``).

The paper's argument is quantitative — per-nest, per-array I/O calls and
seconds are the whole evidence.  This package is the structured substrate
for that evidence:

- :class:`Tracer` (:mod:`~repro.obs.tracer`) — span-based tracing of the
  compiler pipeline (normalize → interference → per-nest optimize →
  tiling → codegen) and the runtime (nest execution, cache activity,
  collective phases), in wall time, plus *virtual-time* spans carrying
  the event simulator's per-I/O-node queues at simulated timestamps;
- :class:`MetricsRegistry` (:mod:`~repro.obs.metrics`) — counters,
  gauges and histograms (I/O call sizes, queue waits) that
  :class:`~repro.runtime.stats.IOContext`, the tile cache and the event
  simulator publish into;
- exporters (:mod:`~repro.obs.export`) — Chrome trace-event JSON
  loadable in Perfetto / ``chrome://tracing``, both clocks in one file;
- per-nest × per-array I/O reports (:mod:`~repro.obs.report`) whose
  totals equal the run's folded :class:`~repro.runtime.stats.IOStats`
  exactly, rendered by ``python -m repro.obs report <trace.json>``.

Observability is **off by default** and bit-identical when off: every
instrumented call site takes an ``obs=None`` parameter and records
nothing — stats, timings and printed lines are unchanged (the same
contract as :class:`~repro.cache.tile_cache.CacheConfig` and
:class:`~repro.collective.planner.CollectiveConfig`).  Enable it by
passing an :class:`Observability`::

    from repro.obs import Observability

    obs = Observability()
    decision = optimize_program(program, obs=obs)
    ex = OOCExecutor(decision.program, decision.layout_objects(), obs=obs)
    result = ex.run()
    obs.note_stats(result.stats)
    obs.export("trace.json")      # open in https://ui.perfetto.dev
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Iterable, Mapping

from .export import (
    REQUIRED_EVENT_KEYS,
    OpenMetricsError,
    chrome_trace_events,
    decode_key,
    encode_key,
    load_trace,
    render_openmetrics,
    sanitize,
    validate_trace_events,
    write_trace,
)
from .journal import (
    Journal,
    JournalError,
    doc_from_journal,
    payload_from_journal,
    read_journal,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PercentileError,
    registry_from_snapshot,
)
from .profile import (
    HotspotTable,
    ProfileConfig,
    ProfileResult,
    ProfileSession,
    WorkCounters,
    publish_work,
    render_profile,
    validate_collapsed,
)
from .report import (
    CostDriftRecord,
    IOReport,
    NestIORecord,
    OptimalityRecord,
    RedistRecord,
    build_drift,
    build_optimality,
    io_record,
    nest_records,
    render_report,
    report_totals,
)
from .tracer import Instant, Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.stats import IOStats


@dataclass(frozen=True)
class ObsConfig:
    """Switches for the observability layer ("off" is ``obs=None``).

    ``wall_time``
        record wall-clock spans of the pipeline and executor.
    ``metrics``
        publish counters/histograms into the registry.
    ``sim_events``
        record the event simulator's per-request timeline (virtual-time
        spans on per-node and per-I/O-node tracks).
    ``per_array``
        emit per-nest × per-array I/O records (forces per-call tracing
        in the executor; stats are unaffected).
    """

    wall_time: bool = True
    metrics: bool = True
    sim_events: bool = True
    per_array: bool = True


def _view(key: str) -> property:
    return property(
        lambda self: payload_from_journal(self.events).get(key),
        doc=f"The folded payload's ``{key}`` section (None until noted).",
    )


class Observability:
    """One run's collected telemetry: a tracer, a metrics registry and
    an event log.

    Every ``record_*`` / ``note_*`` is one :meth:`emit` of a
    ``{"kind", ...}`` event; the payload, the report and every summary
    attribute are read-only views of :func:`payload_from_journal` over
    :attr:`events`.  A ``journal`` (a :class:`Journal`, a path or a
    file-like) receives the same events as JSON lines while the run is
    in flight; :meth:`close` (or leaving the ``with`` block) writes the
    closing snapshots and closes a journal file this object opened.
    """

    def __init__(
        self,
        config: ObsConfig | None = None,
        *,
        clock=None,
        journal: "Journal | str | IO[str] | None" = None,
    ):
        self.config = config or ObsConfig()
        self.tracer = Tracer(**({"clock": clock} if clock is not None else {}))
        self.metrics = MetricsRegistry()
        #: the run's telemetry, in emission order and in the journal's
        #: own shape (minus ``seq``)
        self.events: list[dict[str, object]] = []
        self._owns_journal = not isinstance(journal, (Journal, type(None)))
        self.journal: Journal | None = (
            Journal(journal) if self._owns_journal else journal
        )

    def emit(self, kind: str, **fields: object) -> None:
        """Log one event: appended in memory, streamed to the journal."""
        self.events.append({"kind": kind, **fields})
        if self.journal is not None:
            self.journal.emit(kind, **fields)

    # -- read-only views of the fold ---------------------------------------

    @property
    def report(self) -> IOReport:
        """The per-nest × per-array records and the drift / optimality
        tables derived from them."""
        return IOReport.from_dict(
            payload_from_journal(self.events)["io_report"]
        )

    @property
    def bounds(self) -> dict[str, Mapping[str, object]]:
        """Registered lower bounds by nest (last registration wins)."""
        return {
            b["nest"]: b
            for e in self.events if e["kind"] == "bounds"
            for b in e["data"]
        }

    run_stats = _view("stats")
    sim_summary = _view("sim")
    serve_summary = _view("serve")
    autotune_summary = _view("autotune")
    profile = _view("profile")

    # -- convenience proxies ----------------------------------------------

    def span(self, name: str, cat: str = "", **args: object):
        return self.tracer.span(name, cat, **args)

    def instant(self, name: str, cat: str = "", **args: object) -> None:
        self.tracer.instant(name, cat, **args)

    # -- events ------------------------------------------------------------

    def record_nest_io(self, record: NestIORecord) -> None:
        self.emit("nest_io", **record.to_dict())

    def record_redist(self, record: RedistRecord) -> None:
        self.emit("redist", **record.to_dict())

    def note_stats(self, stats: "IOStats") -> None:
        """Attach the run's folded stats (the report's ground truth)."""
        self.emit("stats", data=stats.to_dict())

    def note_sim(self, summary: Mapping[str, object]) -> None:
        """Attach the event simulator's run summary (makespan, queue
        waits); rendered as the report's ``event sim:`` line."""
        self.emit("sim", data=sanitize(dict(summary)))

    def note_serve(self, summary: Mapping[str, object]) -> None:
        """Attach a serving run's per-tenant summary
        (:meth:`repro.serve.ServeResult.summary_dict`); rendered as the
        tenant section of ``python -m repro.obs report``."""
        self.emit("serve", data=sanitize(dict(summary)))

    def note_autotune(self, summary: Mapping[str, object]) -> None:
        """Attach an autotuning summary
        (:meth:`repro.autotune.Autotuner.summary`); rendered as the
        autotuning section of ``python -m repro.obs report``."""
        self.emit("autotune", data=sanitize(dict(summary)))

    def note_profile(self, profile) -> None:
        """Attach a finished hotspot capture — a
        :class:`~repro.obs.profile.ProfileResult` or its ``to_dict()``
        payload; rendered as the hotspot section of the report and the
        ``top`` CLI."""
        self.emit("profile", data=sanitize(profile))

    def note_predictions(
        self, predictions: Mapping[str, Mapping[str, float]]
    ) -> None:
        """Register the optimizer's predicted I/O calls per (nest,
        array) — typically :func:`repro.optimizer.cost.predict_program_io`
        of the program about to run; the drift table's prediction side."""
        self.emit("predictions", data=sanitize(predictions))

    def note_bounds(self, bounds: Iterable[object]) -> None:
        """Register static I/O lower bounds — an iterable of
        :class:`repro.bounds.NestBound` (or equivalent dict payloads),
        typically :func:`repro.bounds.program_bounds` of the program
        about to run; the optimality table's bound side."""
        self.emit("bounds", data=[sanitize(b) for b in bounds])

    def note_modeled_elements(self, modeled: Mapping[str, float]) -> None:
        """Register the cost model's element estimates per nest —
        typically :func:`repro.optimizer.cost.predict_program_elements`;
        the optimality table's "modeled" column."""
        self.emit("modeled_elements", data=sanitize(modeled))

    def publish_gauges(self) -> None:
        """Publish the fold's drift and optimality tables as
        ``cost_model.*`` / ``optimality.*`` gauges.  Idempotent —
        callers invoke it once a run's records are complete."""
        if not self.config.metrics:
            return

        def put(name: str, value: float | None, **labels: str) -> None:
            if value is not None:
                self.metrics.gauge(name, **labels).set(value)

        report = self.report
        for d in report.drift:
            labels = {"nest": d.nest, "array": d.array}
            put("cost_model.measured_calls", d.measured_calls, **labels)
            put("cost_model.predicted_calls", d.predicted_calls, **labels)
            put("cost_model.call_error", d.error, **labels)
        bounded = [o for o in report.optimality if o.ratio is not None]
        for o in report.optimality:
            put("optimality.measured_elements", o.measured_elements, nest=o.nest)
            put("optimality.modeled_elements", o.modeled_elements, nest=o.nest)
            put("optimality.bound_elements", o.bound_elements, nest=o.nest)
            put("optimality.ratio", o.ratio, nest=o.nest)
        if bounded:
            put(
                "optimality.run_ratio",
                sum(o.measured_elements for o in bounded)
                / sum(o.bound_elements for o in bounded),
            )

    # -- simulated-time ingestion -----------------------------------------

    def add_sim_events(self, events: Iterable[object]) -> None:
        """Convert the event simulator's request log into virtual-time
        spans: one blocked-interval span per request on its compute
        node's track, one service span on the resource's queue track.
        ``events`` duck-types :class:`repro.collective.sim.SimEvent`."""
        t = self.tracer
        for ev in events:
            kind = ev.kind
            node_track = f"node {ev.node}"
            if kind == "compute":
                t.add_virtual_span(
                    "compute", ev.start_s, ev.end_s - ev.start_s,
                    track=node_track, cat="sim.compute",
                )
                continue
            res_track = "net" if kind == "net" else f"io {ev.resource}"
            wait = ev.start_s - ev.arrival_s
            t.add_virtual_span(
                kind, ev.arrival_s, ev.end_s - ev.arrival_s,
                track=node_track, cat=f"sim.{kind}",
                wait_s=wait, resource=res_track,
            )
            t.add_virtual_span(
                f"serve node {ev.node}", ev.start_s, ev.end_s - ev.start_s,
                track=res_track, cat=f"sim.{kind}",
            )

    def add_fault_events(self, events: Iterable[object]) -> None:
        """Place the fault injector's event log on its own ``faults``
        track: one zero-length virtual span per injected fault or
        resilience action (error, timeout, retry, hedge, outage,
        degrade…), at the event's simulated timestamp.  ``events``
        duck-types :class:`repro.faults.FaultEvent`."""
        t = self.tracer
        for ev in events:
            t.add_virtual_span(
                f"{ev.kind} io{ev.io_node}", ev.time_s, 0.0,
                track="faults", cat=f"fault.{ev.kind}",
                op_index=ev.op_index, io_node=ev.io_node,
                node=ev.node, is_write=ev.is_write,
                **({"detail": ev.detail} if ev.detail else {}),
            )

    # -- export ------------------------------------------------------------

    def _snapshots(self) -> list[dict[str, object]]:
        """The tracer and the registry as events — state that lives
        outside the log until the run is exported or closed."""
        return [
            {"kind": "trace_events", "data": chrome_trace_events(self.tracer)},
            {"kind": "metrics", "data": self.metrics.to_dict()},
        ]

    def to_payload(self) -> dict[str, object]:
        return payload_from_journal(self.events + self._snapshots())

    def _sync(self) -> None:
        """Log the snapshots, unless the log already ends with them."""
        snapshots = self._snapshots()
        if self.events[-len(snapshots):] != snapshots:
            for event in snapshots:
                self.emit(**event)

    def export(self, path_or_file: str | IO[str]) -> dict[str, object]:
        """Write the Perfetto-loadable trace JSON; returns the payload
        (which an attached journal now replays to as well)."""
        self._sync()
        payload = payload_from_journal(self.events)
        write_trace(path_or_file, payload)
        return payload

    def close(self) -> None:
        """Log the closing snapshots and close a journal file this
        object opened (one it was handed stays open)."""
        self._sync()
        if self._owns_journal:
            self.journal.close()

    def __enter__(self) -> "Observability":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


__all__ = [
    "CostDriftRecord",
    "Counter",
    "Gauge",
    "Histogram",
    "HotspotTable",
    "Instant",
    "IOReport",
    "Journal",
    "JournalError",
    "MetricsRegistry",
    "NestIORecord",
    "ObsConfig",
    "Observability",
    "OpenMetricsError",
    "OptimalityRecord",
    "PercentileError",
    "ProfileConfig",
    "ProfileResult",
    "ProfileSession",
    "RedistRecord",
    "REQUIRED_EVENT_KEYS",
    "Span",
    "Tracer",
    "WorkCounters",
    "build_drift",
    "build_optimality",
    "chrome_trace_events",
    "decode_key",
    "doc_from_journal",
    "encode_key",
    "io_record",
    "load_trace",
    "nest_records",
    "payload_from_journal",
    "publish_work",
    "read_journal",
    "registry_from_snapshot",
    "render_openmetrics",
    "render_profile",
    "render_report",
    "report_totals",
    "sanitize",
    "validate_collapsed",
    "validate_trace_events",
    "write_trace",
]


def _payload_report(
    payload: Mapping[str, object], *, include_metrics: bool = False
) -> str:
    """Render ``python -m repro.obs report``'s text from a loaded trace
    payload (exposed for the CLI and tests)."""
    report = IOReport.from_dict(payload.get("io_report", {}))
    stats = payload.get("stats")
    metrics = payload.get("metrics") if include_metrics else None
    return render_report(
        report, stats, metrics,
        serve=payload.get("serve"), profile=payload.get("profile"),
        autotune=payload.get("autotune"), sim=payload.get("sim"),
    )
