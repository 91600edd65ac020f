"""Wall time by layer and deterministic work counters (``repro.obs.profile``).

The measurement layer that makes an optimization claim evidence
instead of anecdote.  Two instruments, each with its own determinism
contract:

- **Work counters** (:data:`WORK`) — always-on integer counts of the
  pricing stack's actual work: ``plan_runs`` batches (a transfer, a
  tile's transfers or a stretch of a whole walk each), priced runs
  coming out of the sieve/split planner, event-simulator events, cache
  probes, tile plans built and dependence reference pairs examined (the
  rank-invariant planning work), element addresses the stores
  enumerated, and interpreted Python loop iterations per phase.  Plain int
  increments, bit-identical across repeat runs, published per run as
  *deltas* into the :class:`~repro.obs.metrics.MetricsRegistry` (keys
  ``work.*``) — integers, so the PR-4 regression gate holds them to
  exact equality.  ``priced_runs`` is conserved under batching —
  however a walk's transfers are grouped into kernel calls, the same
  runs are priced — while ``plan_runs_calls`` drops with it.
- **One cProfile capture** (``ProfileConfig(cprofile=True)``) of the
  whole run, folded two ways: :func:`layer_table` (self seconds and
  calls per pipeline layer, plus the share no layer owns) and
  :func:`collapsed_stacks` (flamegraph ``folded`` lines).  No source
  hook names a hot path in advance, so the table cannot be blind to one.

Everything is opt-in via ``profile=ProfileConfig(...)`` on
:class:`~repro.engine.executor.OOCExecutor` /
:func:`~repro.parallel.spmd.run_version_parallel` and bit-identical
when off — the same contract as ``obs=None``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace
from typing import Iterable, Mapping

from .report import Column, render_table

#: the unlabeled work counters, in publication order
WORK_KEYS = (
    "plan_runs_calls", "priced_runs", "sim_events", "cache_probes",
    "plan_nest_calls", "dependence_pairs", "addresses_enumerated",
)


class WorkCounters:
    """Deterministic counts of the pricing stack's work.

    A single module-level instance (:data:`WORK`) accumulates for the
    whole process — increments are bare int adds, cheap enough to stay
    always-on.  Runs take a :meth:`snapshot` before and compute the
    :meth:`delta` after, so per-run published values are independent of
    process history and bit-identical across repeats.
    """

    __slots__ = WORK_KEYS + ("python_loop_iters",)

    def __init__(self) -> None:
        # plan_nest_calls / dependence_pairs count rank-invariant work:
        # tile plans built and reference pairs the dependence analyzer
        # examined stay at one nest's worth however many ranks run.
        # addresses_enumerated sums the sizes of the regions whose every
        # element address a store computed: data movement on the address
        # path only (unit-granular files, blocked maps, interleaved
        # stores, partial cached reads), so 0 in a simulate-mode run
        # (pricing derives runs from the tile's box) and where a flat
        # file moves linear-layout tiles as boxes of its view
        for key in WORK_KEYS:
            setattr(self, key, 0)
        #: interpreted Python loop iterations per phase ("element" for
        #: the element loops / iteration estimate, "tile" for tile-space
        #: steps)
        self.python_loop_iters: dict[str, int] = {}

    def add_loop_iters(self, phase: str, n: int) -> None:
        d = self.python_loop_iters
        d[phase] = d.get(phase, 0) + n

    def snapshot(self) -> dict[str, object]:
        return {
            **{k: getattr(self, k) for k in WORK_KEYS},
            "python_loop_iters": dict(self.python_loop_iters),
        }

    @staticmethod
    def delta(
        before: Mapping[str, object], after: Mapping[str, object]
    ) -> dict[str, object]:
        """What happened between two snapshots.  Phase keys appear only
        when their delta is nonzero, so serialized deltas are identical
        for runs that never touch a phase."""
        out: dict[str, object] = {
            k: after[k] - before[k] for k in WORK_KEYS
        }
        b = before["python_loop_iters"]
        phases = {
            phase: n - b.get(phase, 0)
            for phase, n in sorted(after["python_loop_iters"].items())
            if n - b.get(phase, 0)
        }
        out["python_loop_iters"] = phases
        return out


#: the process-wide work counters every instrumented site increments
WORK = WorkCounters()


def publish_work(registry, delta: Mapping[str, object]) -> None:
    """Fold one run's work delta into a metrics registry as ``work.*``
    counters.  Values stay ints end to end, so the regression gate
    treats them as exact-match deterministic counters."""
    for key in WORK_KEYS:
        registry.counter(f"work.{key}").inc(int(delta.get(key, 0)))
    for phase, n in (delta.get("python_loop_iters") or {}).items():
        registry.counter("work.python_loop_iters", phase=phase).inc(int(n))


# -- wall time by layer -----------------------------------------------------

#: the layer vocabulary — the names ``perfbench/trace.py`` prints (a test
#: compares them), so the two tables read side by side; any other ``repro``
#: module falls under its top-level package (``ir``, ``linalg``, ``obs``, ...)
LAYERS = (
    "workloads", "optimizer", "optimizer.ilp", "dependence", "engine.plan",
    "engine.executor", "engine.interpreter", "layout", "runtime.ooc_array",
    "runtime.chunked", "runtime.stats", "parallel", "collective.planner",
    "collective.sim", "cache", "serve.scheduler", "serve.shared_cache",
    "autotune.search", "autotune.model", "bounds", "backends",
)

_PACKAGE_DIR = os.path.dirname(os.path.dirname(__file__)) + os.sep


def layer_of(filename: str) -> str | None:
    """The layer of a profiled function, from its source file: the
    longest of :data:`LAYERS` matching its module path inside the
    ``repro`` package, else the top-level package; ``None`` for code
    outside the package (builtins, numpy, the standard library)."""
    if not filename.startswith(_PACKAGE_DIR):
        return None
    module = filename[len(_PACKAGE_DIR):-len(".py")].replace(os.sep, ".")
    best = module.partition(".")[0]
    for layer in LAYERS:
        if len(layer) > len(best) and f"{module}.".startswith(f"{layer}."):
            best = layer
    return best


def layer_table(stats) -> dict[str, object]:
    """Fold a cProfile capture (:class:`pstats.Stats`) by layer.

    A ``repro`` function's self time and calls go to its own layer.
    Time in a builtin, numpy or the standard library is charged along
    each recorded caller edge — the edges :func:`collapsed_stacks`
    walks; cProfile keeps no deeper stack — to the calling function's
    layer, and what no ``repro`` caller owns is ``unattributed_s``.
    Rows and ``unattributed_s`` sum to ``total_s``, the capture's total
    self time; ``coverage = 1 - unattributed_s / total_s``."""
    self_s: dict = defaultdict(float)   # layer -> seconds; None = no owner
    calls: dict = defaultdict(int)
    for func, (_cc, nc, tt, _ct, callers) in stats.stats.items():
        layer = layer_of(func[0])
        self_s[layer] += tt
        if layer is not None:
            calls[layer] += nc
            continue
        for caller, edge in callers.items():
            owner = layer_of(caller[0])
            if owner is not None:
                # per-edge tuple: (callcount, ncalls, tottime, cumtime)
                self_s[owner] += edge[2]
                self_s[None] -= edge[2]
    unattributed = self_s.pop(None, 0.0)
    total = unattributed + sum(self_s.values())
    return {
        "rows": [
            {"layer": layer, "self_s": s, "calls": calls[layer]}
            for layer, s in sorted(
                self_s.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ],
        "unattributed_s": unattributed,
        "total_s": total,
        "coverage": 1.0 - unattributed / total if total else 0.0,
    }


# -- span aggregates --------------------------------------------------------


@dataclass(frozen=True)
class HotspotRow:
    """One aggregated span name of the hotspot table."""

    name: str
    count: int
    total_s: float
    self_s: float

    @property
    def per_call_us(self) -> float:
        return 1e6 * self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, object]:
        return {**asdict(self), "per_call_us": self.per_call_us}


@dataclass
class HotspotTable:
    """The tracer's wall spans of one profiled run, aggregated by name."""

    spans: list[HotspotRow] = field(default_factory=list)

    def add_spans(self, tracer) -> None:
        """Aggregate a tracer's closed wall spans by name: self time is
        the span's duration minus its direct children's durations."""
        spans = [s for s in tracer.wall_spans if s.closed]
        child_s: dict[int, float] = {}
        for s in spans:
            if s.parent_id is not None:
                child_s[s.parent_id] = (
                    child_s.get(s.parent_id, 0.0) + s.duration_s
                )
        agg: dict[str, list] = {}
        for s in spans:
            row = agg.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.duration_s
            row[2] += s.duration_s - child_s.get(s.span_id, 0.0)
        rows = [
            HotspotRow(name, c, t, self_s)
            for name, (c, t, self_s) in agg.items()
        ]
        rows.sort(key=lambda r: (-r.self_s, r.name))
        self.spans = rows

    def to_dict(self) -> dict[str, object]:
        return {"spans": [r.to_dict() for r in self.spans]}


# -- the profile session ----------------------------------------------------


def _check_top(top: int) -> None:
    if top < 1:
        raise ValueError(f"top must be a positive integer, got {top!r}")


@dataclass(frozen=True)
class ProfileConfig:
    """Switches for one profiling capture.

    ``cprofile``
        run the block under :mod:`cProfile`: the layer table and the
        collapsed-stack (flamegraph) export.  Off by default — it
        multiplies wall time and only one capture can be active per
        process; without it a capture only counts work and spans.
    ``top``
        rows shown per section of the rendered ``top``-style report.
    """

    cprofile: bool = False
    top: int = 20

    def __post_init__(self) -> None:
        _check_top(self.top)


@dataclass
class ProfileResult:
    """One finished capture: the span aggregates, the run's
    deterministic work delta, and (with ``cprofile``) the layer table
    and the raw :mod:`pstats` data."""

    hotspots: HotspotTable
    work: dict[str, object]
    #: :func:`layer_table` of the capture; None without ``cprofile``
    layers: dict[str, object] | None = None
    #: pstats.Stats of the cProfile capture; None without ``cprofile``
    #: (and after deserialization — stacks live in the folded export)
    pstats: object | None = None
    top: int = 20

    def to_dict(self) -> dict[str, object]:
        out = {"hotspots": self.hotspots.to_dict(), "work": dict(self.work)}
        if self.layers is not None:
            out["layers"] = self.layers
        return out

    def collapsed(self) -> list[str]:
        """:func:`collapsed_stacks` of the cProfile capture (flamegraph
        ``folded`` lines); empty without ``cprofile``."""
        if self.pstats is None:
            return []
        return collapsed_stacks(self.pstats)

    def render_top(self) -> str:
        return render_profile(self.to_dict(), top=self.top)


class ProfileSession:
    """One capture around one block: the work counters are snapshot on
    creation, cProfile (when configured) runs between ``__enter__`` and
    ``__exit__``, and :meth:`finish` freezes the result."""

    def __init__(self, config: ProfileConfig | None = None):
        self.config = config or ProfileConfig()
        self._cprofile = cProfile.Profile() if self.config.cprofile else None
        self.work_before = WORK.snapshot()

    def __enter__(self) -> "ProfileSession":
        if self._cprofile is not None:
            self._cprofile.enable()
        return self

    def __exit__(self, *exc) -> bool:
        if self._cprofile is not None:
            self._cprofile.disable()
        return False

    def finish(self, tracer=None) -> ProfileResult:
        """Freeze the capture into a :class:`ProfileResult`; ``tracer``
        (a live :class:`~repro.obs.tracer.Tracer`) adds the span-level
        aggregation section."""
        table = HotspotTable()
        if tracer is not None:
            table.add_spans(tracer)
        stats = None
        if self._cprofile is not None:
            stats = pstats.Stats(self._cprofile)
        return ProfileResult(
            hotspots=table,
            work=WorkCounters.delta(self.work_before, WORK.snapshot()),
            layers=None if stats is None else layer_table(stats),
            pstats=stats,
            top=self.config.top,
        )


@contextmanager
def capture(config: ProfileConfig | None, obs=None):
    """Run a block under a fresh capture — the one owner of a
    :class:`ProfileSession`; yields a holder whose ``result`` is set on
    exit: the session spans the block, is finished after it (with
    ``obs``'s tracer spans) and published into ``obs``.  ``result``
    stays ``None`` for ``config=None``, which profiles nothing, and for
    a block that raises (the profiler is switched off, nothing is
    finished)."""
    cap = SimpleNamespace(result=None)
    if config is None:
        yield cap
        return
    session = ProfileSession(config)
    with session:
        yield cap
    cap.result = session.finish(tracer=obs.tracer if obs is not None else None)
    if obs is not None:
        obs.note_profile(cap.result)
        if obs.config.metrics:
            publish_work(obs.metrics, cap.result.work)


# -- collapsed stacks (flamegraph folded format) ----------------------------


def _frame(func: tuple[str, int, str]) -> str:
    """One folded-format frame label.  Frames are ``;``-separated and
    the sample count follows the last space, so both characters are
    scrubbed from the label."""
    filename, lineno, name = func
    if filename == "~":           # built-in: ('~', 0, "<built-in ...>")
        label = name
    else:
        base = filename.rsplit("/", 1)[-1]
        label = f"{base}:{name}:{lineno}"
    return label.replace(";", "_").replace(" ", "_")


def collapsed_stacks(stats) -> list[str]:
    """Flamegraph folded lines from a :class:`pstats.Stats`.

    cProfile keeps caller *edges*, not full stacks, so the export is the
    standard two-level approximation: each function's self time is
    attributed under each recorded caller (``caller;callee n``), and
    functions without callers emit a single frame.  Counts are integer
    microseconds; zero-weight edges are dropped (the folded format
    requires positive counts)."""
    lines: list[str] = []
    for func, (_cc, _nc, tt, _ct, callers) in sorted(stats.stats.items()):
        label = _frame(func)
        if not callers:
            us = int(round(tt * 1e6))
            if us > 0:
                lines.append(f"{label} {us}")
            continue
        for caller, edge in sorted(callers.items()):
            # per-edge tuple: (callcount, ncalls, tottime, cumtime)
            edge_tt = edge[2] if isinstance(edge, tuple) else tt
            us = int(round(edge_tt * 1e6))
            if us > 0:
                lines.append(f"{_frame(caller)};{label} {us}")
    return lines


def validate_collapsed(lines: Iterable[str]) -> None:
    """Raise ``ValueError`` unless every line is valid folded format:
    non-empty ``;``-separated frames, one space, a positive integer."""
    for i, line in enumerate(lines):
        stack, sep, count = line.rpartition(" ")
        if not sep or not stack:
            raise ValueError(
                f"folded line {i} has no 'stack count' split: {line!r}"
            )
        if not count.isdigit() or int(count) <= 0:
            raise ValueError(
                f"folded line {i} count is not a positive int: {line!r}"
            )
        if any(not frame for frame in stack.split(";")):
            raise ValueError(f"folded line {i} has an empty frame: {line!r}")
        if " " in stack:
            raise ValueError(
                f"folded line {i} has a space inside the stack: {line!r}"
            )


# -- rendering --------------------------------------------------------------

#: the span table of ``hotspots.spans`` payload rows
SPAN_COLUMNS = (
    Column("span", 24, get="name"), Column("count", 10, ">"),
    Column("self_s", 10, ">", ".6f"), Column("total_s", 10, ">", ".6f"),
    Column("us/call", 10, ">", ".2f",
           get=lambda r: float(r.get("per_call_us", 0.0))),
)


def render_profile(profile: Mapping[str, object], *, top: int = 20) -> str:
    """The ``top``-style section from a serialized profile payload
    (``ProfileResult.to_dict()`` / a trace's ``profile`` key): the
    layer table with its coverage, the span aggregation, and the
    deterministic work counters — ``top`` rows per table."""
    _check_top(top)
    sections: list[list[str]] = []
    layers = profile.get("layers")
    if layers:
        total = float(layers["total_s"])
        rows = layers["rows"]
        unattributed = {
            "layer": "unattributed", "calls": "",
            "self_s": layers["unattributed_s"],
        }
        lines = render_table(
            "wall time by layer (cProfile self time; non-repro callees "
            "charged to the calling layer)",
            (
                Column("layer", 24), Column("calls", 10, ">"),
                Column("self_s", 10, ">", ".6f"),
                Column("share", 7, ">", ".1f", "%", get=lambda r: (
                    100.0 * r["self_s"] / total if total else 0.0
                )),
            ),
            rows[:top] + [unattributed],
        )
        if len(rows) > top:
            lines.append(f"  ... ({len(rows) - top} more layer(s))")
        lines.append(
            f"total {total:.6f} s in {len(rows)} layer(s), "
            f"coverage {float(layers['coverage']):.3f}"
        )
        sections.append(lines)
    spans = list((profile.get("hotspots") or {}).get("spans") or [])
    if spans:
        lines = render_table(
            "span aggregates (wall spans by name)", SPAN_COLUMNS, spans[:top]
        )
        if len(spans) > top:
            lines.append(f"  ... ({len(spans) - top} more span name(s))")
        sections.append(lines)
    work = profile.get("work") or {}
    if work:
        lines = ["work counters (deterministic, exact-match gated)"]
        for key in WORK_KEYS:
            lines.append(f"  work.{key:<18} {int(work.get(key, 0)):>14}")
        for phase, n in sorted(
            (work.get("python_loop_iters") or {}).items()
        ):
            lines.append(
                f"  work.python_loop_iters{{phase={phase}}} {int(n):>6}"
            )
        sections.append(lines)
    if not sections:
        return "profile: empty capture"
    return "\n\n".join("\n".join(lines) for lines in sections)
