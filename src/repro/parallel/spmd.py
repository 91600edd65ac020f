"""Running a program version on ``p`` simulated compute nodes."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace as dc_replace
from typing import Mapping, Sequence

import numpy as np

from ..collective.planner import (
    CollectiveConfig,
    CollectiveReport,
    NestCollectivePlan,
    io_node_loads,
    plan_nest_collective,
)
from ..collective.sim import (
    K_COMPUTE,
    K_NET,
    NET,
    NodeTimeline,
    OpTable,
    SimEvent,
    io_ops,
    nest_ops,
    simulate,
)
from ..backends import BackendMetrics, StorageBackend, resolve_backend
from ..cache import CacheConfig
from ..engine.executor import NestRun, OOCExecutor, RunResult, run_ranks
from ..faults import FaultConfig, FaultInjector
from ..obs import (
    Observability,
    RedistRecord,
    io_record,
    nest_records,
)
from ..obs import profile as _prof
from ..obs.profile import ProfileConfig, ProfileResult
from ..optimizer.strategies import VersionConfig
from ..runtime import IOStats, MachineParams, ParallelFileSystem
from ..runtime.stats import CallTable
from ..runtime.params import check_n_nodes
from .model import makespan


@dataclass
class ParallelRun:
    version: str
    n_nodes: int
    time_s: float
    node_results: list[RunResult]
    #: per-nest collective decisions + event-sim record; ``None`` for
    #: plain independent runs (``collective`` not passed)
    collective: CollectiveReport | None = None
    #: layer table + deterministic work-counter deltas for the whole
    #: driver (all ranks + the collective re-pricing); ``None`` unless
    #: ``profile=ProfileConfig(...)`` was passed
    profile: ProfileResult | None = None

    @property
    def total_io_calls(self) -> int:
        return sum(r.stats.calls for r in self.node_results)

    @property
    def total_stats(self) -> IOStats:
        return IOStats.fold(r.stats for r in self.node_results)

    @property
    def backend_metrics(self) -> BackendMetrics | None:
        """Measured transfer counters folded across ranks (``None``
        unless the run used a measuring backend)."""
        per_rank = [
            r.backend_metrics for r in self.node_results
            if r.backend_metrics is not None
        ]
        return BackendMetrics.fold(per_rank) if per_rank else None


def run_version_parallel(
    cfg: VersionConfig,
    n_nodes: int,
    *,
    params: MachineParams | None = None,
    binding: Mapping[str, int] | None = None,
    memory_per_node: int | None = None,
    collective: CollectiveConfig | None = None,
    obs: Observability | None = None,
    faults: FaultConfig | None = None,
    trace: bool = False,
    backend: StorageBackend | str | None = None,
    profile: ProfileConfig | None = None,
    cache: CacheConfig | None = None,
    tile_sizes: Mapping[str, int] | None = None,
) -> ParallelRun:
    """Execute a version on ``n_nodes`` (simulate mode by default).

    Every node gets the same per-node memory budget (the paper fixes the
    computation's memory at 1/128th of the out-of-core data *per node*),
    its own contiguous slab of each nest's outer tile loop, and its own
    partition of the files — staggered across the shared I/O nodes.

    With ``collective=CollectiveConfig(...)`` the run is re-priced
    through :mod:`repro.collective`: per nest, two-phase collective I/O
    is planned from the per-node call traces and applied when it beats
    the independent cost (``mode="auto"``), and the makespan comes from
    the event-driven simulator (``simulator="event"``) instead of the
    closed-form aggregate max.  Without it the behavior — stats and
    makespan — is exactly the independent model.

    ``obs`` (a :class:`repro.obs.Observability`) traces per-rank
    execution, emits per-nest × per-array I/O records matching the
    run's folded stats exactly, and — for event-simulated collective
    runs — records the simulated-time timeline.  ``None`` (default)
    records nothing and is bit-identical.

    ``faults`` (a :class:`repro.faults.FaultConfig`) injects the plan's
    faults with the policy's defenses: each rank's executor gets an
    injector seeded ``plan.seed + rank`` for call-indexed faults
    (transient errors, stragglers, retries, hedged reads); the event
    simulator gets the time-indexed faults (latency windows, outages —
    error draws stay on the accounting path, whose trace already
    carries every re-issued attempt); and a two-phase nest whose
    aggregator rank is in ``plan.failed_nodes`` is degraded to
    independent I/O when ``policy.degrade_collective`` is set.
    ``None`` (default) is bit-identical to the pre-fault behavior.

    ``trace=True`` forces per-call tracing in every rank's executor even
    without a collective config or observability: every
    :attr:`NestRun.trace <repro.engine.executor.NestRun.trace>` is then
    a :class:`~repro.runtime.stats.CallTable` — the serving layer
    (:mod:`repro.serve`) re-prices its calls on a *shared* cluster's
    I/O-node queues.  Tracing never changes the accounting; stats are
    bit-identical either way.

    ``backend`` picks the storage backend every rank executes against
    (:mod:`repro.backends`): the default (``None``) stays simulate-only
    accounting, and an instance or a kind string (``"memory"``,
    ``"mmap"``, ...) moves actual data per rank — each rank gets its own
    clone, so per-rank file namespaces and measured metrics stay
    independent, and :attr:`ParallelRun.backend_metrics` folds the
    measured side across ranks.  Accounted stats are identical for
    every data-carrying backend.

    ``profile`` (a :class:`repro.obs.ProfileConfig`) turns on
    deterministic work counting — and, with ``cprofile=True``, the
    wall-time layer table — for the *whole driver*: one capture spans
    every rank's executor plus the collective re-pricing, and
    :attr:`ParallelRun.profile` carries the resulting
    :class:`~repro.obs.ProfileResult`.  ``None`` (default) records
    nothing and is bit-identical.

    ``cache``/``tile_sizes`` are the autotuner's executable knobs
    (:mod:`repro.autotune`): a :class:`~repro.cache.CacheConfig` gives
    every rank's executor a tile cache carved out of its memory budget,
    and ``tile_sizes`` forces per-nest block sizes (capped at what the
    planner's binary search would allow, so forced plans stay
    memory-safe).  Both default to ``None`` and are bit-identical off.
    """
    check_n_nodes(n_nodes)
    params = params or MachineParams()
    b = cfg.program.binding(binding)
    total_elements = cfg.program.total_elements(b)
    budget = params.memory_budget(total_elements, memory_per_node)
    # per-array attribution works off the executors' call traces, so an
    # enabled obs forces tracing like the collective planner does
    trace = trace or collective is not None or (
        obs is not None and obs.config.per_array
    )
    stagger = max(1, total_elements // n_nodes)
    # one backend per rank: the resolved one plus clones of it, so
    # rank-private file namespaces never collide and metrics attribute
    # per rank.  Without a backend the driver stays simulate-only
    first = resolve_backend("simulate" if backend is None else backend)
    # one capture spans every rank plus the collective re-pricing
    with _prof.capture(profile, obs) as cap:
        # nothing but a rank's slab and files depends on the rank: rank
        # 0's executor is built (and plans), the others are it, rebound
        ranks = [OOCExecutor(
            cfg.program, cfg.layouts, params=params, binding=b,
            memory_budget=budget, backend=first, tiling=cfg.tiling,
            storage_spec=cfg.storage_spec, trace=trace, tile_sizes=tile_sizes,
            cache=cache, faults=faults, edges=cfg.edges,
            node_slice=(0, n_nodes) if n_nodes > 1 else None,
        )]
        for rank in range(1, n_nodes):
            pfs = ParallelFileSystem(params)
            pfs.advance(rank * stagger)
            ranks.append(ranks[0].for_rank((rank, n_nodes), pfs, first.clone()))
        # every rank walks a nest before any walks the next
        timed = obs is not None and obs.config.wall_time
        results = run_ranks(ranks, obs.tracer if timed else None)
        file_maps = [ex.file_names() for ex in ranks]
        for rank, ex in enumerate(ranks):
            if obs is not None:
                if ex.injector is not None:
                    if obs.config.metrics:
                        ex.injector.publish_counters(obs.metrics)
                        ex.injector.publish_metrics(obs.metrics)
                    if ex.injector.events:
                        obs.add_fault_events(ex.injector.events)
                if obs.config.per_array and rank == 0:
                    # the prediction is per-program, identical on every
                    # rank; the drift table compares it to the *summed*
                    # measured I/O
                    obs.note_predictions(ex.predicted_io())
                    obs.note_modeled_elements(ex.predicted_elements())
            if first.measures:
                # disk-backed rank namespaces are done once the stats
                # and metrics are collected — release mmaps / chunk
                # directories
                ex.close()
        if obs is not None and obs.config.per_array:
            from ..bounds import run_bounds

            obs.note_bounds(run_bounds(
                cfg.program, b, budget,
                max((r.peak_memory for r in results), default=0),
                n_nodes, cache is not None,
            ))
        if collective is None:
            run = ParallelRun(cfg.name, n_nodes, makespan(results), results)
            if obs is not None and obs.config.per_array:
                for rank, r in enumerate(results):
                    for rec in nest_records(
                        params, r.nest_runs, file_maps[rank],
                        node=rank, path="independent",
                    ):
                        obs.record_nest_io(rec)
        else:
            run = _collective_run(
                cfg.name, n_nodes, params, results, collective,
                obs=obs, file_maps=file_maps, faults=faults,
            )
        if obs is not None:
            if obs.config.per_array:
                obs.publish_gauges()
            obs.note_stats(run.total_stats)
    run.profile = cap.result
    return run


def speedup_curve(
    cfg: VersionConfig,
    node_counts: Sequence[int] = (16, 32, 64, 128),
    *,
    params: MachineParams | None = None,
    binding: Mapping[str, int] | None = None,
    memory_per_node: int | None = None,
    collective: CollectiveConfig | None = None,
    faults: FaultConfig | None = None,
) -> dict[int, float]:
    """Speedups vs. the same version on one node (Table 3's metric).

    ``faults`` applies the same fault plan + resilience policy to the
    one-node baseline and to every scaled run (per-rank injectors are
    seeded ``plan.seed + rank`` as in :func:`run_version_parallel`), so
    the curve answers "how does this version scale *under* this fault
    scenario" rather than comparing a faulted run to a clean baseline.
    """
    for p in node_counts:
        check_n_nodes(p)
    base = run_version_parallel(
        cfg, 1, params=params, binding=binding,
        memory_per_node=memory_per_node, collective=collective,
        faults=faults,
    )
    out: dict[int, float] = {}
    for p in node_counts:
        run = run_version_parallel(
            cfg, p, params=params, binding=binding,
            memory_per_node=memory_per_node, collective=collective,
            faults=faults,
        )
        out[p] = base.time_s / run.time_s if run.time_s > 0 else float("inf")
    return out


# -- collective execution ---------------------------------------------------


def _collective_run(
    name: str,
    n_nodes: int,
    params: MachineParams,
    results: list[RunResult],
    config: CollectiveConfig,
    obs: Observability | None = None,
    file_maps: list[dict[int, str]] | None = None,
    faults: FaultConfig | None = None,
) -> ParallelRun:
    """Re-price a traced run nest by nest: keep the recorded independent
    accounting where independent wins, substitute the two-phase plan's
    aggregator calls + redistribution messages where collective wins."""
    report = CollectiveReport(config)
    stats = [IOStats() for _ in range(n_nodes)]
    loads = [np.zeros(params.n_io_nodes) for _ in range(n_nodes)]
    # per-rank timeline, one OpTable per nest (or two-phase repetition)
    ops: list[list[OpTable]] = [[] for _ in range(n_nodes)]
    # merged file_base -> array name map across the staggered per-rank
    # file systems (rank 0 first; labels only, totals unaffected)
    names: dict[int, str] = {}
    for fm in file_maps or []:
        for base, nm in fm.items():
            names.setdefault(base, nm)
    for j in range(len(results[0].nest_runs)):
        nrs = [r.nest_runs[j] for r in results]
        nest_name = nrs[0].nest_name
        plan = plan_nest_collective(
            params,
            nest_name,
            [nr.trace for nr in nrs],
            weight=max(nr.trace_weight for nr in nrs),
            cb_nodes=config.cb_nodes,
        )
        two_phase = plan is not None and (
            config.mode == "always" or (config.mode == "auto" and plan.wins)
        )
        # resilience degradation: two-phase funnels a nest's I/O through
        # its aggregators, so a failed aggregator rank takes the whole
        # exchange down — fall back to independent I/O for this nest
        degraded = (
            two_phase
            and faults is not None
            and faults.policy.degrade_collective
            and any(
                r in faults.plan.failed_nodes for r in plan.aggregators
            )
        )
        if degraded:
            two_phase = False
            report.degraded.append(nest_name)
            stats[0].degraded_nests += 1
            if obs is not None and obs.config.metrics:
                obs.metrics.counter("faults.degraded_nests").inc()
        if plan is not None:
            report.nest_plans.append(plan)
        report.chosen[nest_name] = two_phase
        if obs is not None:
            # the degraded flag appears only when it fired, so traces
            # recorded with faults=None stay byte-identical
            extra = {"degraded": True} if degraded else {}
            obs.instant(
                f"collective {nest_name}",
                "collective",
                two_phase=two_phase,
                has_plan=plan is not None,
                **extra,
            )
        if two_phase:
            _account_two_phase(params, plan, nrs, stats, loads, ops)
            if obs is not None and obs.config.per_array:
                # one record per non-empty (file, direction, aggregator)
                # call list — exactly the calls the stats were built from
                for a in plan.accesses:
                    name = names.get(a.file_base, f"file@{a.file_base}")
                    for rank, ln in zip(plan.aggregators, a.agg_lengths):
                        if ln.size:
                            c, e = ln.size, int(ln.sum())
                            obs.record_nest_io(
                                io_record(
                                    params, nest_name, name, rank,
                                    "two-phase",
                                    (0, c, 0, e) if a.is_write
                                    else (c, 0, e, 0),
                                    plan.weight,
                                )
                            )
                vols = [v for a in plan.accesses for _, _, v in a.messages]
                if vols:
                    obs.record_redist(
                        RedistRecord(
                            nest=nest_name,
                            messages=len(vols) * plan.weight,
                            elements=sum(vols) * plan.weight,
                            time_s=sum(
                                params.net_time(v * params.element_size)
                                for v in vols
                            ) * plan.weight,
                        )
                    )
        else:
            _account_independent(params, nrs, stats, loads, ops)
            if obs is not None and obs.config.per_array:
                for rank, nr in enumerate(nrs):
                    for rec in nest_records(
                        params, [nr], names, node=rank, path="independent"
                    ):
                        obs.record_nest_io(rec)
    if any(report.chosen.values()) or report.degraded:
        # degraded nests keep independent accounting but must surface
        # the degraded_nests counter, so the rebuilt stats are used
        node_results = [
            dc_replace(r, stats=s, io_node_load=l)
            for r, s, l in zip(results, stats, loads)
        ]
    else:
        # every nest stayed independent: keep the executor's own
        # accounting verbatim (bit-identical to collective=None)
        node_results = results
    if config.simulator == "event":
        events: list[SimEvent] | None = None
        reg = None
        if obs is not None:
            if obs.config.sim_events:
                events = []
            if obs.config.metrics:
                reg = obs.metrics
        sim_inj: FaultInjector | None = None
        if faults is not None:
            # the sim applies only the plan's *time-indexed* faults
            # (stragglers, latency windows, outages): call-indexed error
            # draws already fired on the accounting path, and the traced
            # timelines carry every re-issued attempt as its own op —
            # drawing errors again here would double-inject them
            sim_plan = dc_replace(
                faults.plan,
                read_error_rate=0.0,
                write_error_rate=0.0,
                error_ops=frozenset(),
            )
            sim_inj = FaultInjector(sim_plan, faults.policy)
        timelines = [
            NodeTimeline(i, OpTable.concat(parts))
            for i, parts in enumerate(ops)
        ]
        sim = simulate(
            params, timelines, events=events, metrics=reg, faults=sim_inj
        )
        report.sim = sim
        if sim_inj is not None and obs is not None and sim_inj.events:
            obs.add_fault_events(sim_inj.events)
        time_s = sim.makespan_s
        if obs is not None:
            if events:
                obs.add_sim_events(events)
            obs.note_sim({
                "makespan_s": sim.makespan_s,
                "waited_requests": sim.waited_requests,
                "wait_time_s": sim.wait_time_s,
                "net_busy_s": sim.net_busy_s,
                "n_events": sim.n_events,
            })
    else:
        time_s = makespan(node_results)
    return ParallelRun(name, n_nodes, time_s, node_results, collective=report)


def _account_independent(
    params: MachineParams,
    nrs: list[NestRun],
    stats: list[IOStats],
    loads: list[np.ndarray],
    ops: list[list[OpTable]],
) -> None:
    for rank, nr in enumerate(nrs):
        stats[rank] = stats[rank].merge(nr.stats)
        ops[rank].append(nest_ops(params, nr))
        t = nr.trace
        loads[rank] += (
            io_node_loads(params, t.base + t.offset, t.length)
            * nr.trace_weight
        )


def _account_two_phase(
    params: MachineParams,
    plan: NestCollectivePlan,
    nrs: list[NestRun],
    stats: list[IOStats],
    loads: list[np.ndarray],
    ops: list[list[OpTable]],
) -> None:
    """Substitute the plan's phases for the recorded independent I/O.

    Per repetition each rank's timeline is: read-phase aggregator calls,
    incoming read-redistribution messages, compute, outgoing
    write-redistribution messages, write-phase aggregator calls.
    Compute itself is untouched — only the data movement changes.
    """
    w = plan.weight
    esz = params.element_size
    # the plan split per rank: an aggregator's calls as one table — one
    # direction after the other, the first access's direction first,
    # because io_node_loads accumulates in call order — and each rank's
    # message volumes per direction
    first = plan.accesses[0].is_write
    by_dir = sorted(plan.accesses, key=lambda a: a.is_write != first)
    calls = [CallTable.of(()) for _ in nrs]
    for a_idx, rank in enumerate(plan.aggregators):
        calls[rank] = CallTable.concat(
            CallTable(
                a.file_base, a.agg_offsets[a_idx] - a.file_base,
                a.agg_lengths[a_idx], a.is_write,
            )
            for a in by_dir
        )
    vols: dict[tuple[int, bool], list[int]] = defaultdict(list)
    for a in plan.accesses:
        for rank, _a_idx, vol in a.messages:
            vols[rank, a.is_write].append(vol)

    for rank, nr in enumerate(nrs):
        t = calls[rank]
        add = IOStats(compute_time_s=nr.stats.compute_time_s)
        net_s = {}
        for is_write in (False, True):
            ln = t.length[t.is_write == is_write]
            n_calls, elems = ln.size, int(ln.sum())
            if is_write:
                add.write_calls += n_calls * w
                add.elements_written += elems * w
            else:
                add.read_calls += n_calls * w
                add.elements_read += elems * w
            add.io_time_s += params.batch_time(n_calls, elems) * w
            v = vols[rank, is_write]
            net_s[is_write] = [params.net_time(x * esz) for x in v]
            add.redist_messages += len(v) * w
            add.redist_elements += sum(v) * w
            add.redist_time_s += sum(net_s[is_write]) * w
        loads[rank] += io_node_loads(params, t.base + t.offset, t.length) * w
        stats[rank] = stats[rank].merge(add)

        # timeline: phases in order, repeated per weight
        compute_rep = nr.stats.compute_time_s / w
        io = io_ops(params, t)
        rep = OpTable.concat([
            io.select(~t.is_write),
            OpTable(K_NET, NET, net_s[False], False),
            OpTable(
                K_COMPUTE, 0, [compute_rep] if compute_rep > 0.0 else [], False
            ),
            OpTable(K_NET, NET, net_s[True], False),
            io.select(t.is_write),
        ])
        ops[rank].extend([rep] * w)
