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
    parse_openmetrics,
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
    HotspotRecorder,
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
    drift_totals,
    io_record,
    nest_records,
    optimality_totals,
    render_report,
    report_totals,
)
from .tracer import Instant, Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.stats import IOStats


@dataclass(frozen=True)
class ObsConfig:
    """Switches for the observability layer.

    ``enabled``
        master switch; a disabled config behaves exactly like passing
        ``obs=None`` everywhere.
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

    enabled: bool = True
    wall_time: bool = True
    metrics: bool = True
    sim_events: bool = True
    per_array: bool = True


class Observability:
    """One run's collected telemetry: tracer + registry + I/O report."""

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
        self.report = IOReport()
        #: streaming telemetry sink (:mod:`repro.obs.journal`): records
        #: and snapshots are appended as JSONL events while the run is
        #: in flight.  ``None`` (the default) emits nothing — payloads
        #: are bit-identical without a journal attached.
        if journal is None or isinstance(journal, Journal):
            self.journal = journal
        else:
            self.journal = Journal(journal)
        #: serialized hotspot/work capture (:meth:`note_profile`); the
        #: payload's ``profile`` key exists only when this is set
        self.profile: dict[str, object] | None = None
        self.run_stats: dict[str, object] | None = None
        self.sim_summary: dict[str, object] | None = None
        #: multi-tenant serving summary (:mod:`repro.serve`): per-tenant
        #: job counts, queue delays and folded stats, set by
        #: :meth:`note_serve` when a scheduler run completes
        self.serve_summary: dict[str, object] | None = None
        #: autotuning-loop summary (:mod:`repro.autotune`): solver
        #: provenance, drift signals and recalibration history, set by
        #: :meth:`note_autotune`; the payload's ``autotune`` key exists
        #: only when this is set
        self.autotune_summary: dict[str, object] | None = None
        #: cost-model predictions per nest → array → estimated calls,
        #: registered by the executor / parallel driver before the run's
        #: drift table is built (:meth:`finalize_drift`)
        self.predictions: dict[str, dict[str, float]] = {}
        #: static I/O lower bounds per nest
        #: (:meth:`repro.bounds.NestBound.to_dict` payloads), registered
        #: by :meth:`note_bounds` before :meth:`finalize_optimality`
        self.bounds: dict[str, dict[str, object]] = {}
        #: cost-model element estimates per nest, the "modeled" column
        #: of the optimality table (:meth:`note_modeled_elements`)
        self.modeled_elements: dict[str, float] = {}

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    # -- convenience proxies ----------------------------------------------

    def span(self, name: str, cat: str = "", **args: object):
        return self.tracer.span(name, cat, **args)

    def instant(self, name: str, cat: str = "", **args: object) -> None:
        self.tracer.instant(name, cat, **args)

    def record_nest_io(self, record: NestIORecord) -> None:
        self.report.records.append(record)
        if self.journal is not None:
            self.journal.emit("nest_io", **record.to_dict())

    def record_redist(self, record: RedistRecord) -> None:
        self.report.redist.append(record)
        if self.journal is not None:
            self.journal.emit("redist", **record.to_dict())

    def note_stats(self, stats: "IOStats") -> None:
        """Attach the run's folded stats (the report's ground truth)."""
        self.run_stats = stats.to_dict()
        if self.journal is not None:
            self.journal.emit("stats", data=self.run_stats)

    def note_serve(self, summary: Mapping[str, object]) -> None:
        """Attach a serving run's per-tenant summary
        (:meth:`repro.serve.ServeResult.summary_dict`); rendered as the
        tenant section of ``python -m repro.obs report``."""
        self.serve_summary = dict(summary)
        if self.journal is not None:
            self.journal.emit("serve", data=sanitize(self.serve_summary))

    def note_autotune(self, summary: Mapping[str, object]) -> None:
        """Attach an autotuning summary
        (:meth:`repro.autotune.Autotuner.summary`); rendered as the
        autotuning section of ``python -m repro.obs report``."""
        self.autotune_summary = dict(summary)
        if self.journal is not None:
            self.journal.emit(
                "autotune", data=sanitize(self.autotune_summary)
            )

    def note_profile(self, profile) -> None:
        """Attach a finished hotspot capture — a
        :class:`~repro.obs.profile.ProfileResult` or its ``to_dict()``
        payload; rendered as the hotspot section of the report and the
        ``top`` CLI."""
        self.profile = (
            profile.to_dict() if hasattr(profile, "to_dict")
            else dict(profile)
        )
        if self.journal is not None:
            self.journal.emit("profile", data=self.profile)

    # -- cost-model drift ---------------------------------------------------

    def note_predictions(
        self, predictions: Mapping[str, Mapping[str, float]]
    ) -> None:
        """Register the optimizer's predicted I/O per (nest, array) —
        typically :func:`repro.optimizer.cost.predict_program_io` of the
        program about to run."""
        for nest, per_array in predictions.items():
            self.predictions.setdefault(nest, {}).update(per_array)

    def finalize_drift(self) -> None:
        """(Re)build the report's cost-model drift table from the
        collected records and registered predictions, and publish the
        per-(nest, array) model-error metrics.  Idempotent — callers
        invoke it whenever a run's records are complete."""
        if not self.predictions and not self.report.records:
            return
        self.report.drift = build_drift(self.report.records, self.predictions)
        if self.config.metrics:
            for r in self.report.drift:
                labels = {"nest": r.nest, "array": r.array}
                self.metrics.gauge(
                    "cost_model.measured_calls", **labels
                ).set(r.measured_calls)
                if r.predicted_calls is not None:
                    self.metrics.gauge(
                        "cost_model.predicted_calls", **labels
                    ).set(r.predicted_calls)
                if r.error is not None:
                    self.metrics.gauge(
                        "cost_model.call_error", **labels
                    ).set(r.error)

    # -- optimality (I/O lower bounds) --------------------------------------

    def note_bounds(self, bounds: Iterable[object]) -> None:
        """Register static I/O lower bounds — an iterable of
        :class:`repro.bounds.NestBound` (or equivalent dict payloads),
        typically :func:`repro.bounds.program_bounds` of the program
        about to run, keyed by nest name (last registration wins)."""
        for b in bounds:
            d = b.to_dict() if hasattr(b, "to_dict") else dict(b)
            self.bounds[d["nest"]] = d

    def note_modeled_elements(self, modeled: Mapping[str, float]) -> None:
        """Register the cost model's element estimates per nest —
        typically :func:`repro.optimizer.cost.predict_program_elements`."""
        self.modeled_elements.update(modeled)

    def finalize_optimality(self) -> None:
        """(Re)build the report's achieved-vs-bound table from the
        collected records and registered bounds, and publish the
        ``optimality.*`` gauges.  Idempotent, like
        :meth:`finalize_drift`."""
        if not self.bounds and not self.report.records:
            return
        self.report.optimality = build_optimality(
            self.report.records, self.bounds, self.modeled_elements
        )
        if not self.config.metrics:
            return
        bound_sum = 0.0
        measured_sum = 0
        for r in self.report.optimality:
            labels = {"nest": r.nest}
            self.metrics.gauge(
                "optimality.measured_elements", **labels
            ).set(r.measured_elements)
            if r.modeled_elements is not None:
                self.metrics.gauge(
                    "optimality.modeled_elements", **labels
                ).set(r.modeled_elements)
            if r.bound_elements is not None:
                self.metrics.gauge(
                    "optimality.bound_elements", **labels
                ).set(r.bound_elements)
            if r.ratio is not None:
                self.metrics.gauge("optimality.ratio", **labels).set(r.ratio)
                bound_sum += r.bound_elements
                measured_sum += r.measured_elements
        if bound_sum > 0:
            self.metrics.gauge(
                "optimality.run_ratio"
            ).set(measured_sum / bound_sum)

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

    def to_payload(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "traceEvents": chrome_trace_events(self.tracer),
            "displayTimeUnit": "ms",
            "otherData": {"tool": "repro.obs"},
            "metrics": self.metrics.to_dict(),
            "io_report": self.report.to_dict(),
        }
        if self.run_stats is not None:
            payload["stats"] = self.run_stats
        if self.sim_summary is not None:
            payload["sim"] = self.sim_summary
        if self.serve_summary is not None:
            payload["serve"] = self.serve_summary
        if self.autotune_summary is not None:
            payload["autotune"] = self.autotune_summary
        if self.profile is not None:
            payload["profile"] = self.profile
        return payload

    def export(self, path_or_file: str | IO[str]) -> dict[str, object]:
        """Write the Perfetto-loadable trace JSON; returns the payload."""
        payload = self.to_payload()
        write_trace(path_or_file, payload)
        if self.journal is not None:
            # snapshot kinds stream at export time (records streamed as
            # they were collected); replay folds them back last-wins
            self.journal.emit("metrics", data=payload["metrics"])
            if self.sim_summary is not None:
                self.journal.emit("sim", data=sanitize(self.sim_summary))
            self.journal.flush()
        return payload


def active(obs: "Observability | None") -> "Observability | None":
    """The instrumentation guard: the obs instance if it is live, else
    ``None`` — call sites do ``obs = active(obs)`` once and then a plain
    ``if obs is not None`` per instrumentation point."""
    return obs if obs is not None and obs.config.enabled else None


__all__ = [
    "CostDriftRecord",
    "Counter",
    "Gauge",
    "Histogram",
    "HotspotRecorder",
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
    "active",
    "build_drift",
    "build_optimality",
    "chrome_trace_events",
    "decode_key",
    "doc_from_journal",
    "drift_totals",
    "encode_key",
    "io_record",
    "load_trace",
    "nest_records",
    "optimality_totals",
    "parse_openmetrics",
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
        autotune=payload.get("autotune"),
    )
