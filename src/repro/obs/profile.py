"""Hotspot profiling and deterministic work counters (``repro.obs.profile``).

The ROADMAP's batched-pricing-kernel item starts with "find the
hotspots" — this module is the measurement layer that makes that (and
every later optimization claim) evidence instead of anecdote.  Three
instruments, each with a different determinism contract:

- **Work counters** (:data:`WORK`) — always-on integer counts of the
  pricing stack's actual work: ``plan_runs`` invocations, priced runs
  coming out of the sieve/split planner, event-simulator events, cache
  probes, tile plans built and dependence reference pairs examined (the
  rank-invariant planning work), element addresses the stores
  enumerated, and interpreted Python loop iterations per phase.  Plain int
  increments, bit-identical across repeat runs, published per run as
  *deltas* into the :class:`~repro.obs.metrics.MetricsRegistry` (keys
  ``work.*``) — integers, so the PR-4 regression gate holds them to
  exact equality.  A future batched kernel must keep ``priced_runs``
  conserved while wall time drops; these counters are how that is
  checked.
- **Hotspot sites** (:class:`HotspotRecorder`) — wall-clock attribution
  of the named hot paths (``pricing.plan_runs``, ``io.record_runs``,
  ``sim.event_loop``, ``cache.probe``, …) with self/cumulative time and
  call counts, aggregated into a :class:`HotspotTable` and rendered as
  a ``top``-style section.  Off by default; activated only inside a
  :class:`ProfileSession`, so unprofiled runs never touch the clock.
- **cProfile capture** — optional interpreter-level profile with
  collapsed-stack (flamegraph ``folded``) export, for the hotspots the
  hand-placed sites do not name.

Everything is opt-in via ``profile=ProfileConfig(...)`` on
:class:`~repro.engine.executor.OOCExecutor` /
:func:`~repro.parallel.spmd.run_version_parallel` and bit-identical
when off — the same contract as ``obs=None``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping

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
        # element address a store computed: data movement only, so 0 in
        # a simulate-mode run (pricing derives runs from the tile's box)
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


# -- hotspot sites ----------------------------------------------------------


class HotspotRecorder:
    """Wall-time attribution per named site, nesting-aware.

    ``begin``/``end`` time a site; a nested site's duration is credited
    to the parent's *children* total, so every row separates self time
    from cumulative time.  :meth:`add` records an externally measured
    leaf duration with the same parent crediting.  The recorder is only
    consulted through the module attribute :data:`ACTIVE` — ``None``
    (the default) means instrumented sites skip the clock entirely.
    """

    __slots__ = ("sites", "_stack", "_clock")

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        #: site name -> [count, cumulative_s, self_s]
        self.sites: dict[str, list] = {}
        self._stack: list[list] = []

    def begin(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def end(self, count: int = 1) -> None:
        name, start, child_s = self._stack.pop()
        dt = self._clock() - start
        if self._stack:
            self._stack[-1][2] += dt
        row = self.sites.get(name)
        if row is None:
            row = self.sites[name] = [0, 0.0, 0.0]
        row[0] += count
        row[1] += dt
        row[2] += dt - child_s

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Record a leaf site measured by the caller (no nesting under
        it); still credits the enclosing site's children total."""
        if self._stack:
            self._stack[-1][2] += seconds
        row = self.sites.get(name)
        if row is None:
            row = self.sites[name] = [0, 0.0, 0.0]
        row[0] += count
        row[1] += seconds
        row[2] += seconds


#: the live recorder instrumented sites consult; rebound only by
#: :class:`ProfileSession` activation (``None`` = profiling off)
ACTIVE: HotspotRecorder | None = None


def timed(name: str, fn: Callable, *args, **kwargs):
    """Call ``fn`` under a hotspot site when profiling is active, or
    directly (no clock read) when it is not."""
    rec = ACTIVE
    if rec is None:
        return fn(*args, **kwargs)
    rec.begin(name)
    try:
        return fn(*args, **kwargs)
    finally:
        rec.end()


@dataclass(frozen=True)
class HotspotRow:
    """One aggregated site (or span name) of the hotspot table."""

    name: str
    count: int
    total_s: float
    self_s: float

    @property
    def per_call_us(self) -> float:
        return 1e6 * self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "per_call_us": self.per_call_us,
        }


@dataclass
class HotspotTable:
    """Hotspot attribution of one profiled run: fine-grained site rows
    (the recorder's pricing instrumentation) plus the tracer's wall
    spans aggregated by name — two sections, never summed together, so
    a span enclosing an instrumented site cannot double-count."""

    sites: list[HotspotRow] = field(default_factory=list)
    spans: list[HotspotRow] = field(default_factory=list)

    @classmethod
    def from_recorder(cls, recorder: HotspotRecorder | None) -> "HotspotTable":
        if recorder is None:
            return cls()
        rows = [
            HotspotRow(name, count, total, self_s)
            for name, (count, total, self_s) in recorder.sites.items()
        ]
        rows.sort(key=lambda r: (-r.self_s, r.name))
        return cls(sites=rows)

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

    @property
    def total_self_s(self) -> float:
        return sum(r.self_s for r in self.sites)

    def to_dict(self) -> dict[str, object]:
        return {
            "sites": [r.to_dict() for r in self.sites],
            "spans": [r.to_dict() for r in self.spans],
        }


# -- the profile session ----------------------------------------------------


@dataclass(frozen=True)
class ProfileConfig:
    """Switches for one profiling capture.

    ``hotspots``
        activate the site recorder (the hotspot table).
    ``cprofile``
        additionally run :mod:`cProfile` for interpreter-level stacks
        and the collapsed-stack (flamegraph) export.  Off by default —
        it multiplies wall time and only one capture can be active per
        process.
    ``top``
        rows shown by the rendered ``top``-style report section.
    """

    hotspots: bool = True
    cprofile: bool = False
    top: int = 20


@dataclass
class ProfileResult:
    """One finished capture: the hotspot table, the run's deterministic
    work delta, and (with ``cprofile``) the raw :mod:`pstats` data."""

    hotspots: HotspotTable
    work: dict[str, object]
    #: pstats.Stats of the cProfile capture; None without ``cprofile``
    #: (and after deserialization — stacks live in the folded export)
    pstats: object | None = None
    top: int = 20

    def to_dict(self) -> dict[str, object]:
        return {
            "hotspots": self.hotspots.to_dict(),
            "work": dict(self.work),
        }

    def collapsed(self) -> list[str]:
        """Collapsed-stack (flamegraph ``folded``) lines from the
        cProfile capture: ``caller;callee <self_microseconds>`` per
        caller edge, root functions as single frames.  Empty without
        ``cprofile``."""
        if self.pstats is None:
            return []
        return collapsed_stacks(self.pstats)

    def render_top(self) -> str:
        return render_profile(self.to_dict(), top=self.top)


class ProfileSession:
    """Owns one capture across one or more executor runs.

    ``activate``/``deactivate`` are re-entrant (the SPMD driver holds
    the session open across per-rank executors); the recorder and the
    cProfile capture bind on the outermost activation only.
    :meth:`finish` computes the work delta and freezes the result.
    """

    def __init__(
        self,
        config: ProfileConfig | None = None,
        *,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.config = config or ProfileConfig()
        self.recorder = (
            HotspotRecorder(clock) if self.config.hotspots else None
        )
        self._cprofile = None
        if self.config.cprofile:
            import cProfile

            self._cprofile = cProfile.Profile()
        self._depth = 0
        self._prev: HotspotRecorder | None = None
        self.work_before = WORK.snapshot()

    def activate(self) -> None:
        global ACTIVE
        self._depth += 1
        if self._depth == 1:
            if self.recorder is not None:
                self._prev = ACTIVE
                ACTIVE = self.recorder
            if self._cprofile is not None:
                self._cprofile.enable()

    def deactivate(self) -> None:
        global ACTIVE
        self._depth -= 1
        if self._depth == 0:
            if self._cprofile is not None:
                self._cprofile.disable()
            if self.recorder is not None:
                ACTIVE = self._prev
                self._prev = None

    def __enter__(self) -> "ProfileSession":
        self.activate()
        return self

    def __exit__(self, *exc) -> bool:
        self.deactivate()
        return False

    def finish(self, tracer=None) -> ProfileResult:
        """Freeze the capture into a :class:`ProfileResult`; ``tracer``
        (a live :class:`~repro.obs.tracer.Tracer`) adds the span-level
        aggregation section."""
        table = HotspotTable.from_recorder(self.recorder)
        if tracer is not None:
            table.add_spans(tracer)
        stats = None
        if self._cprofile is not None:
            import pstats

            stats = pstats.Stats(self._cprofile)
        return ProfileResult(
            hotspots=table,
            work=WorkCounters.delta(self.work_before, WORK.snapshot()),
            pstats=stats,
            top=self.config.top,
        )


@contextmanager
def capture(profile: "ProfileConfig | ProfileSession | None", obs=None):
    """Run a block under ``profile``, whoever owns it; yields a holder
    whose ``result`` is set on exit.

    A :class:`ProfileConfig` is *owned*: a fresh session spans the
    block, is finished after it (with ``obs``'s tracer spans) and
    published into ``obs``; ``result`` is the :class:`ProfileResult`.
    A live :class:`ProfileSession` is *borrowed*: only activated around
    the block — its creator finishes it — and ``result`` stays ``None``,
    as it does for ``None``, which never touches the clock.  A block
    that raises is deactivated, not finished."""
    cap = SimpleNamespace(result=None)
    owned = isinstance(profile, ProfileConfig)
    if owned:
        profile = ProfileSession(profile)
    if profile is None:
        yield cap
        return
    with profile:
        yield cap
    if owned:
        cap.result = profile.finish(
            tracer=obs.tracer if obs is not None else None
        )
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


def render_profile(profile: Mapping[str, object], *, top: int = 20) -> str:
    """The ``top``-style hotspot section from a serialized profile
    payload (``ProfileResult.to_dict()`` / a trace's ``profile`` key):
    site rows by self time, the span aggregation, and the deterministic
    work counters."""
    lines: list[str] = []
    hotspots = profile.get("hotspots") or {}
    sites = list(hotspots.get("sites") or [])
    spans = list(hotspots.get("spans") or [])
    header = (
        f"{'site':<24} {'count':>10} {'self_s':>10} "
        f"{'total_s':>10} {'us/call':>10}"
    )
    if sites:
        lines.append("hotspots (repro.obs.profile) — self-time top")
        lines.append(header)
        lines.append("-" * len(header))
        for r in sites[:top]:
            lines.append(
                f"{r['name']:<24} {r['count']:>10} "
                f"{float(r['self_s']):>10.6f} {float(r['total_s']):>10.6f} "
                f"{float(r.get('per_call_us', 0.0)):>10.2f}"
            )
        if len(sites) > top:
            lines.append(f"  ... ({len(sites) - top} more site(s))")
    if spans:
        lines.append("")
        lines.append("span aggregates (wall spans by name)")
        lines.append(header)
        lines.append("-" * len(header))
        for r in spans[:top]:
            lines.append(
                f"{r['name']:<24} {r['count']:>10} "
                f"{float(r['self_s']):>10.6f} {float(r['total_s']):>10.6f} "
                f"{float(r.get('per_call_us', 0.0)):>10.2f}"
            )
        if len(spans) > top:
            lines.append(f"  ... ({len(spans) - top} more span name(s))")
    work = profile.get("work") or {}
    if work:
        lines.append("")
        lines.append("work counters (deterministic, exact-match gated)")
        for key in WORK_KEYS:
            lines.append(f"  work.{key:<18} {int(work.get(key, 0)):>14}")
        for phase, n in sorted(
            (work.get("python_loop_iters") or {}).items()
        ):
            lines.append(
                f"  work.python_loop_iters{{phase={phase}}} {int(n):>6}"
            )
    return "\n".join(lines) if lines else "profile: empty capture"
