"""Deterministic discrete-event simulation of the parallel I/O system.

The closed-form :func:`repro.parallel.model.makespan` is an aggregate
bound: it compares the busiest compute node against the busiest I/O
node, but cannot say *when* requests collide.  This simulator models the
run per request:

- each **compute node** executes its timeline sequentially — compute
  segments and blocking I/O calls in issue order (blocking I/O is the
  machine model's semantics);
- each **I/O node** services a FIFO queue: a request starts when it
  arrives and the I/O node is free, and occupies it for
  ``io_latency_s + bytes/bandwidth`` seconds;
- the **interconnect** is one shared channel with the same FIFO
  discipline at ``net_latency_s + bytes/net_bandwidth`` per message
  (redistribution phase of two-phase collective I/O);
- optional **prefetch overlap**: a node carrying
  :class:`~repro.cache.metrics.CacheMetrics` has the
  :class:`~repro.cache.prefetch.DoubleBufferModel`'s ``overlapped_io_s``
  as a credit — up to that many seconds of blocked time are hidden
  under compute, which is exactly what the second buffer bought.

Everything is deterministic: events are processed in (arrival, node)
order, and arrivals are non-decreasing (a node's next request cannot
arrive before its previous one completed), so per-resource FIFO order
is arrival order.  When queues never overlap, every request starts the
moment it arrives and a node's finish time is its serial
``compute + io`` total — the simulation reduces to ``makespan()``
exactly; contention only ever pushes times later.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..cache.prefetch import overlap_credit
from ..engine.executor import RunResult
from ..obs import profile as _prof
from ..runtime.params import MachineParams

#: resource id of the shared interconnect channel
NET = -1


@dataclass(frozen=True)
class SimOp:
    """One timeline entry: ``compute`` advances the node's clock;
    ``io``/``net`` block the node on a resource's FIFO queue."""

    kind: str                 # "compute" | "io" | "net"
    duration_s: float = 0.0   # compute only
    resource: int = 0         # io: I/O node index (net uses the channel)
    service_s: float = 0.0    # io / net occupancy
    is_write: bool = False    # io only: direction, for fault error draws


@dataclass
class NodeTimeline:
    node: int
    ops: list[SimOp] = field(default_factory=list)
    #: prefetch overlap budget (seconds of blocked time hidden under
    #: compute by double buffering)
    overlap_credit_s: float = 0.0


@dataclass(frozen=True)
class SimEvent:
    """One simulated request, fully timed: it arrived at the resource at
    ``arrival_s``, started service at ``start_s`` (the difference is
    queueing delay) and finished at ``end_s``.  ``compute`` events have
    zero wait by construction.  Only recorded when the caller passes an
    ``events`` list — the observability layer's simulated-time timeline
    (:meth:`repro.obs.Observability.add_sim_events`)."""

    node: int
    kind: str          # "compute" | "io" | "net"
    resource: int      # I/O node index; 0 for compute, NET for net
    arrival_s: float
    start_s: float
    end_s: float

    @property
    def wait_s(self) -> float:
        return self.start_s - self.arrival_s


@dataclass
class SimResult:
    makespan_s: float
    node_finish_s: list[float]
    io_busy_s: np.ndarray       # per-I/O-node service seconds
    net_busy_s: float           # shared-channel occupancy
    waited_requests: int        # requests that queued behind another
    wait_time_s: float          # total queueing delay
    n_events: int
    #: fault summary (:mod:`repro.faults`): failed attempts injected
    #: during this simulation, retries issued, and backoff seconds —
    #: all zero when no injector was passed (``faults=None``)
    faults_injected: int = 0
    fault_retries: int = 0
    fault_retry_delay_s: float = 0.0

    def describe(self) -> str:
        out = (
            f"makespan={self.makespan_s:.3f}s events={self.n_events} "
            f"waited={self.waited_requests} "
            f"(queue delay {self.wait_time_s:.3f}s) "
            f"net_busy={self.net_busy_s:.3f}s"
        )
        if self.faults_injected or self.fault_retries:
            out += (
                f" faults[injected={self.faults_injected} "
                f"retries={self.fault_retries} "
                f"delay={self.fault_retry_delay_s:.3f}s]"
            )
        return out


def simulate(
    params: MachineParams,
    timelines: Sequence[NodeTimeline],
    *,
    events: list[SimEvent] | None = None,
    metrics=None,
    faults=None,
) -> SimResult:
    """Run the event simulation over per-node timelines.

    ``events`` (a list to append to) records every request as a fully
    timed :class:`SimEvent`; ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) receives queue-wait and
    service-time histograms.  ``faults`` (a
    :class:`repro.faults.FaultInjector`) perturbs ``io`` requests with
    the plan's time-indexed faults — outage deferral, straggler and
    latency-window multipliers at the request's start time — and draws
    per-attempt transient failures, re-queueing failed attempts after
    the policy's backoff (a request that exhausts its retry budget
    raises :class:`~repro.faults.TransientIOError`).  All three default
    to ``None`` — no recording, bit-identical results.
    """
    n = len(timelines)
    inj = faults
    inj_base = (
        (inj.injected, inj.retries, inj.retry_delay_s)
        if inj is not None else None
    )
    io_free = np.zeros(params.n_io_nodes)
    io_busy = np.zeros(params.n_io_nodes)
    net_free = 0.0
    net_busy = 0.0
    clock = [0.0] * n
    ptr = [0] * n
    credit = [tl.overlap_credit_s for tl in timelines]
    finish = [0.0] * n
    waited = 0
    wait_time = 0.0
    n_events = 0
    heap: list[tuple[float, int]] = []

    def schedule(i: int) -> None:
        """Advance node i through compute ops; queue its next request."""
        tl = timelines[i]
        t, j = clock[i], ptr[i]
        while j < len(tl.ops) and tl.ops[j].kind == "compute":
            d = tl.ops[j].duration_s
            if events is not None and d > 0.0:
                events.append(SimEvent(i, "compute", 0, t, t, t + d))
            t += d
            j += 1
        clock[i], ptr[i] = t, j
        if j < len(tl.ops):
            heapq.heappush(heap, (t, i))
        else:
            finish[i] = t

    for i in range(n):
        schedule(i)
    try:
        while heap:
            arrival, i = heapq.heappop(heap)
            op = timelines[i].ops[ptr[i]]
            if op.kind == "net":
                start = max(arrival, net_free)
                done = start + op.service_s
                net_free = done
                net_busy += op.service_s
            elif inj is None:
                start = max(arrival, io_free[op.resource])
                done = start + op.service_s
                io_free[op.resource] = done
                io_busy[op.resource] += op.service_s
            else:
                # perturbed, fallible request: each attempt waits for the
                # queue and any outage covering it, occupies the I/O node
                # for the multiplied service time, and a failed attempt
                # backs off before re-queueing.  The recorded wait spans
                # arrival to the *first* attempt's start; retries extend
                # ``done`` (and the node's blocked time) instead.
                res = op.resource
                t, n_failed = arrival, 0
                start = done = arrival
                while True:
                    start_a = inj.sim_defer(res, max(t, io_free[res]))
                    svc = op.service_s * inj.sim_multiplier(res, start_a)
                    done = start_a + svc
                    io_free[res] = done
                    io_busy[res] += svc
                    if n_failed == 0:
                        start = start_a
                    if not inj.sim_error(res, op.is_write, start_a):
                        break
                    n_failed += 1
                    if n_failed > inj.policy.max_retries:
                        inj.sim_give_up(res, op.is_write, done, n_failed)
                    t = done + inj.sim_retry_delay(n_failed, done)
            if start > arrival:
                waited += 1
                wait_time += start - arrival
            if events is not None:
                events.append(
                    SimEvent(
                        i,
                        op.kind,
                        op.resource if op.kind == "io" else NET,
                        arrival,
                        start,
                        done,
                    )
                )
            if metrics is not None:
                metrics.histogram("sim.queue_wait_us").observe(
                    (start - arrival) * 1e6
                )
                metrics.histogram("sim.service_us").observe(
                    op.service_s * 1e6
                )
                metrics.counter(f"sim.{op.kind}_requests").inc()
            # double-buffered prefetch: spend overlap credit to hide
            # blocked time under the preceding compute (the data was
            # fetched early)
            use = min(credit[i], done - arrival)
            credit[i] -= use
            clock[i] = max(arrival, done - use)
            ptr[i] += 1
            n_events += 1
            schedule(i)
    finally:
        _prof.WORK.sim_events += n_events

    result = SimResult(
        max(finish) if finish else 0.0,
        finish,
        io_busy,
        net_busy,
        waited,
        wait_time,
        n_events,
    )
    if inj is not None:
        result.faults_injected = inj.injected - inj_base[0]
        result.fault_retries = inj.retries - inj_base[1]
        result.fault_retry_delay_s = inj.retry_delay_s - inj_base[2]
    return result


def io_node_of(params: MachineParams, global_elem: int) -> int:
    """The I/O node servicing a request's first stripe — where the
    closed-form model charges the latency, and where the event model
    queues the whole request."""
    return (global_elem // params.stripe_elements) % params.n_io_nodes


def nest_ops(params: MachineParams, nest_run, keep=None) -> list[SimOp]:
    """Timeline ops of one :class:`~repro.engine.executor.NestRun` under
    independent execution: the traced calls in issue order, with the
    nest's compute spread evenly around them (the executor does not
    timestamp compute between calls, so an even spread is the
    deterministic choice — exact in total).

    ``keep(rep, entry, op)`` is consulted once per traced call, in issue
    order; returning false drops that call's I/O op from the timeline
    (the compute around it stays).  The serving layer's shared tile
    cache is such a filter: a hit costs no I/O-node service."""
    if nest_run.trace is None:
        raise ValueError(
            f"nest {nest_run.nest_name!r} carries no trace; build the "
            "executor with trace=True to event-simulate the run"
        )
    ops: list[SimOp] = []
    reps = max(1, nest_run.trace_weight)
    n_calls = len(nest_run.trace)
    compute_rep = nest_run.stats.compute_time_s / reps
    chunk = compute_rep / (n_calls + 1)
    for rep in range(reps):
        for entry in nest_run.trace:
            base, off, ln, is_write = entry
            if chunk > 0.0:
                ops.append(SimOp("compute", duration_s=chunk))
            op = SimOp(
                "io",
                resource=io_node_of(params, base + off),
                service_s=params.call_time(ln * params.element_size),
                is_write=is_write,
            )
            if keep is None or keep(rep, entry, op):
                ops.append(op)
        if chunk > 0.0:
            ops.append(SimOp("compute", duration_s=chunk))
    return ops


def timeline_from_result(
    params: MachineParams,
    node: int,
    result: RunResult,
    *,
    overlap: bool = False,
) -> NodeTimeline:
    """Build a node's timeline from an executed ``RunResult``.

    Requires per-nest call traces (executor built with ``trace=True``).
    """
    ops: list[SimOp] = []
    for nr in result.nest_runs:
        ops.extend(nest_ops(params, nr))
    credit = overlap_credit(result.cache_metrics) if overlap else 0.0
    return NodeTimeline(node, ops, overlap_credit_s=credit)


def event_makespan(
    params: MachineParams,
    results: Sequence[RunResult],
    *,
    overlap: bool = False,
) -> SimResult:
    """Event-simulate an independent (non-collective) parallel run from
    its per-node results — the drop-in contention-aware alternative to
    the closed-form :func:`~repro.parallel.model.makespan`."""
    timelines = [
        timeline_from_result(params, i, r, overlap=overlap)
        for i, r in enumerate(results)
    ]
    return simulate(params, timelines)
