"""Layer tracing from outside the program under test.

Nothing under ``src/`` is edited: for the duration of a traced body the
layer-boundary public functions listed in :data:`TARGETS` are replaced
*at their use sites* (a module global bound by ``from x import f``, a
package attribute the benchmark itself calls through, or a class
attribute for methods) by wrappers that record one in-memory span per
call — ``(layer, start, end, parent)`` — plus counts taken from the
call's arguments and return value.  Everything is restored afterwards,
also when the body raises.

A layer's **self time** is the sum over its spans of the span's duration
minus the part its direct child spans cover (:func:`self_times`); the
load is one thread, so children never overlap.  ``trace.coverage`` is
the share of the traced body's wall time that lands in some layer.

The boundary list is guarded against rot: :func:`resolve` looks up every
(module, attribute) it intends to wrap and raises
:class:`TraceTargetError` naming the missing ones, so a refactor that
renames ``plan_nest`` or moves ``record_runs`` breaks the benchmark
loudly instead of silently dropping a layer to 0 calls.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.runtime.ooc_array import region_size


class TraceTargetError(RuntimeError):
    """A (module, attribute) the tracer wraps no longer exists."""


#: hook signature: (tracer, positional args, keyword args, return value)
CountHook = Callable[["Tracer", tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    layer: str
    #: use-site module: where the name is looked up at call time
    module: str
    #: ``"name"`` for a module global, ``"Class.method"`` for a method
    #: (overrides in subclasses are wrapped too)
    attr: str
    count: CountHook | None = None


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    """One argument of a wrapped call, however it was passed (binding
    the whole signature per call would cost more than the span)."""
    return args[index] if len(args) > index else kwargs[name]


def _count_plan_nest(tracer: "Tracer", args, kwargs, plan) -> None:
    # the inputs the plan depends on — everything except the rank.  The
    # nest object is kept alive as the value so ids are never reused.
    nest = _arg(args, kwargs, 0, "nest")
    key = (
        id(nest),
        _arg(args, kwargs, 1, "spec"),
        _arg(args, kwargs, 2, "memory_budget"),
        tuple(sorted(_arg(args, kwargs, 3, "binding").items())),
        tuple(sorted(_arg(args, kwargs, 4, "shapes").items())),
        kwargs.get("force_block"),
    )
    tracer.plan_keys[key] = nest


def _count_edges(tracer: "Tracer", args, kwargs, edges) -> None:
    tracer.counts["dependence.edges"] += len(edges)


def _count_addresses(tracer: "Tracer", args, kwargs, out) -> None:
    tracer.counts["runtime.ooc_array.addresses_enumerated"] += region_size(
        _arg(args, kwargs, 1, "region")
    )


def _count_priced_runs(tracer: "Tracer", args, kwargs, out) -> None:
    tracer.counts["runtime.stats.priced_runs"] += len(
        _arg(args, kwargs, 2, "offsets")
    )


def _count_events(tracer: "Tracer", args, kwargs, sim) -> None:
    tracer.counts["collective.sim.events"] += sim.n_events


def _count_call_reduction(tracer: "Tracer", args, kwargs, plan) -> None:
    if plan is not None and plan.two_phase_calls:
        tracer.call_reductions.append(plan.call_reduction)


def _count_iterations(tracer: "Tracer", args, kwargs, n) -> None:
    tracer.counts["engine.interpreter.iterations"] += n


def _sites(layer: str, attr: str, modules: Iterable[str],
           count: CountHook | None = None) -> list[Target]:
    return [Target(layer, m, attr, count) for m in modules]


#: layer boundaries, by use site.  Package-level sites (``repro.optimizer``,
#: ``repro.parallel`` ...) are the ones perfbench/workloads.py calls through.
TARGETS: tuple[Target, ...] = tuple(
    _sites("workloads", "build_workload",
           ["repro.workloads", "repro.serve.scheduler"])
    + _sites("workloads", "build_analytics", ["repro.workloads"])
    + _sites("optimizer", "build_version",
             ["repro.optimizer", "repro.serve.scheduler"])
    + _sites("optimizer", "optimize_program", ["repro.optimizer.strategies"])
    + _sites("optimizer.ilp", "optimize_program_ilp",
             ["repro.autotune.search"])
    + _sites("dependence", "analyze_nest",
             ["repro.dependence", "repro.engine.plan", "repro.optimizer.ilp",
              "repro.optimizer.locality", "repro.transforms.distribution",
              "repro.transforms.loop_transform"], _count_edges)
    + _sites("engine.plan", "plan_nest",
             ["repro.engine.executor", "repro.optimizer.strategies",
              "repro.autotune.model"], _count_plan_nest)
    + _sites("engine.executor", "OOCExecutor.__init__",
             ["repro.engine.executor"])
    + _sites("engine.executor", "OOCExecutor.run", ["repro.engine.executor"])
    + _sites("engine.interpreter", "run_element_loops",
             ["repro.engine.executor"], _count_iterations)
    + _sites("engine.interpreter", "run_element_loops_vectorized",
             ["repro.engine.executor"], _count_iterations)
    + _sites("layout", "AddressMap.address", ["repro.layout.layouts"])
    + _sites("runtime.ooc_array", "OutOfCoreArray.addresses",
             ["repro.runtime.ooc_array"], _count_addresses)
    + [Target("runtime.ooc_array", "repro.runtime.ooc_array",
              f"OutOfCoreArray.{m}")
       for m in ("count_tile_io", "read_tile", "read_tile_partial",
                 "write_tile")]
    + [Target("runtime.chunked", "repro.runtime.chunked",
              f"InterleavedChunkedStore.{m}")
       for m in ("read_tiles", "write_tiles")]
    + _sites("runtime.stats", "plan_runs",
             ["repro.runtime.stats", "repro.engine.executor",
              "repro.collective.planner"])
    + _sites("runtime.stats", "IOContext.record_runs",
             ["repro.runtime.stats"], _count_priced_runs)
    + _sites("parallel", "run_version_parallel",
             ["repro.parallel", "repro.serve.scheduler"])
    + _sites("collective.planner", "plan_nest_collective",
             ["repro.parallel.spmd"], _count_call_reduction)
    + _sites("collective.sim", "simulate", ["repro.parallel.spmd"],
             _count_events)
    # trace -> timeline ops: the simulator's input side, as large as the
    # event loop itself on long traces
    + _sites("collective.sim", "nest_ops",
             ["repro.parallel.spmd", "repro.serve.scheduler"])
    + _sites("cache", "TileCache.lookup", ["repro.cache.tile_cache"])
    + _sites("cache", "TileCache.insert", ["repro.cache.tile_cache"])
    + _sites("serve.scheduler", "serve_script", ["repro.serve"])
    + _sites("serve.shared_cache", "SharedTileCache.lookup",
             ["repro.serve.shared_cache"])
    + _sites("serve.shared_cache", "SharedTileCache.insert",
             ["repro.serve.shared_cache"])
    + _sites("autotune.search", "solve_joint", ["repro.autotune"])
    + _sites("autotune.model", "config_cost", ["repro.autotune.search"])
    + _sites("bounds", "program_bounds", ["repro.bounds"])
    # the runtime's doorway into a backend file: time inside is the
    # backend's (mmap page touches for MmapBackend); ops and bytes come
    # from the public BackendMetrics
    + _sites("backends", "OOCFile.gather", ["repro.runtime.file"])
    + _sites("backends", "OOCFile.scatter", ["repro.runtime.file"])
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def resolve(
    targets: Sequence[Target] = TARGETS,
) -> list[tuple[object, str, object, Target]]:
    """``(owner, name, original, target)`` for every site to wrap;
    raises :class:`TraceTargetError` listing all that are missing."""
    sites: list[tuple[object, str, object, Target]] = []
    missing: list[str] = []
    for t in targets:
        try:
            owner: object = importlib.import_module(t.module)
        except ImportError as e:
            missing.append(f"{t.module} ({e})")
            continue
        *path, name = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or name not in vars(owner):
            missing.append(f"{t.module}.{t.attr} [{t.layer}]")
            continue
        sites.append((owner, name, vars(owner)[name], t))
        if path:  # a method: wrap overriding subclasses as well
            for sub in _subclasses(owner):
                if name in vars(sub):
                    sites.append((sub, name, vars(sub)[name], t))
    if missing:
        raise TraceTargetError(
            "trace targets no longer resolve: " + "; ".join(missing)
        )
    return sites


#: one recorded call: (layer, start_s, end_s, parent span index or -1)
Span = tuple[str, float, float, int]


def self_times(spans: Sequence[Span]) -> dict[str, tuple[float, int]]:
    """Per layer: (Σ span duration − direct children's durations, calls)."""
    child_cover = [0.0] * len(spans)
    for _layer, start, end, parent in spans:
        if parent >= 0:
            child_cover[parent] += end - start
    out: dict[str, tuple[float, int]] = {}
    for (layer, start, end, _parent), cover in zip(spans, child_cover):
        s, c = out.get(layer, (0.0, 0))
        out[layer] = (s + (end - start) - cover, c + 1)
    return out


class Tracer:
    """Records spans and counts while :meth:`patched` is active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: distinct plan_nest inputs seen (the value keeps the nest alive)
        self.plan_keys: dict[tuple, object] = {}
        self.call_reductions: list[float] = []
        self._stack: list[int] = [-1]

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        layer, count = target.layer, target.count

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets: Sequence[Target] = TARGETS) -> Iterator[None]:
        sites = resolve(targets)
        try:
            for owner, name, original, target in sites:
                setattr(owner, name, self._wrap(original, target))
            yield
        finally:
            for owner, name, original, _target in sites:
                setattr(owner, name, original)

    def inclusive_s(self, layer: str) -> float:
        """Σ duration of the layer's outermost spans."""
        spans = self.spans
        return sum(
            end - start
            for name, start, end, parent in spans
            if name == layer and (parent < 0 or spans[parent][0] != layer)
        )

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """``<layer>.self_s`` / ``<layer>.calls`` for every layer, the
        counts taken at the boundaries, and coverage of ``wall_s``."""
        per_layer = self_times(self.spans)
        c = self.counts
        out: dict[str, float] = {}
        for layer in LAYERS:
            self_s, calls = per_layer.get(layer, (0.0, 0))
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.calls"] = calls
        attributed = sum(s for s, _ in per_layer.values())
        out["trace.coverage"] = attributed / wall_s if wall_s else 0.0
        out["trace.unattributed_s"] = wall_s - attributed
        plan_calls = out["engine.plan.calls"]
        out["engine.plan.unique_ratio"] = (
            len(self.plan_keys) / plan_calls if plan_calls else 0.0
        )
        for name in (
            "dependence.edges",
            "runtime.ooc_array.addresses_enumerated",
            "runtime.stats.priced_runs",
            "collective.sim.events",
            "engine.interpreter.iterations",
        ):
            out[name] = c[name]
        sim_s = out["collective.sim.self_s"]
        out["collective.sim.events_per_s"] = (
            c["collective.sim.events"] / sim_s if sim_s else 0.0
        )
        cr = self.call_reductions
        out["collective.planner.call_reduction"] = (
            sum(cr) / len(cr) if cr else 0.0
        )
        out["autotune.search.solve_s"] = self.inclusive_s("autotune.search")
        return out
