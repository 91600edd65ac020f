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

A timeline is an :class:`OpTable` — columns, which its producers fill by
array arithmetic over a :class:`~repro.runtime.stats.CallTable`;
:class:`SimOp` is a *row* of it, built only for tests and debugging.
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
from ..runtime.stats import CallTable, ColumnTable

#: resource id of the shared interconnect channel
NET = -1

#: op kinds; an :class:`OpTable` stores a kind as its index here
KINDS = ("compute", "io", "net")
K_COMPUTE, K_IO, K_NET = range(3)


@dataclass(frozen=True)
class SimOp:
    """One timeline entry: ``compute`` advances the node's clock;
    ``io``/``net`` block the node on a resource's FIFO queue."""

    kind: str                 # "compute" | "io" | "net"
    duration_s: float = 0.0   # compute only
    resource: int = 0         # io: I/O node index (net uses the channel)
    service_s: float = 0.0    # io / net occupancy
    is_write: bool = False    # io only: direction, for fault error draws


class OpTable(ColumnTable):
    """Timeline ops in issue order: ``kind`` (index into ``KINDS``),
    ``resource`` (I/O node of an ``io`` op, ``NET`` for ``net``),
    ``seconds`` (a compute op's duration, an ``io``/``net`` op's
    service time) and ``is_write``.  Rows are :class:`SimOp`."""

    COLUMNS = dict(
        kind=np.int64, resource=np.int64, seconds=np.float64,
        is_write=np.bool_,
    )

    @classmethod
    def of(cls, ops):
        if isinstance(ops, cls):
            return ops
        rows = []
        for k, op in enumerate(ops):
            if op.kind not in KINDS:
                raise ValueError(f"op {k}: unknown kind {op.kind!r}")
            seconds = op.duration_s if op.kind == "compute" else op.service_s
            rows.append(
                (KINDS.index(op.kind), op.resource, seconds, op.is_write)
            )
        return super().of(rows)

    def rows(self) -> list[SimOp]:
        return [
            SimOp("compute", duration_s=s) if k == K_COMPUTE
            else SimOp(KINDS[k], resource=r, service_s=s, is_write=w)
            for k, r, s, w in super().rows()
        ]

    def slot_lists(self, n_io_nodes: int) -> list[list]:
        """:meth:`lists` with ``resource`` as the event loop's slot: the
        I/O node of an ``io`` op, ``n_io_nodes`` for the channel."""
        slot = np.where(self.kind == K_NET, n_io_nodes, self.resource)
        return [c.tolist() for c in (self.kind, slot, self.seconds,
                                     self.is_write)]

    def check(self, n_io_nodes: int, node: int) -> None:
        """Reject ops the event loop would mis-serve: a kind outside
        ``KINDS``, an ``io`` op on an I/O node the machine does not
        have (a negative index would silently wrap), negative or
        non-finite seconds."""
        bad = (
            (self.kind < 0) | (self.kind >= len(KINDS))
            | ((self.kind == K_IO)
               & ((self.resource < 0) | (self.resource >= n_io_nodes)))
            | ~(np.isfinite(self.seconds) & (self.seconds >= 0.0))
        )
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(
                f"node {node} op {k}: {[c[k].item() for c in self.cols]} "
                f"cannot be served ({n_io_nodes} I/O nodes, kinds {KINDS})"
            )


@dataclass
class NodeTimeline:
    node: int
    #: an :class:`OpTable`; a sequence of :class:`SimOp` is coerced
    ops: OpTable = field(default_factory=list)
    #: prefetch overlap budget (seconds of blocked time hidden under
    #: compute by double buffering)
    overlap_credit_s: float = 0.0

    def __post_init__(self):
        try:
            self.ops = OpTable.of(self.ops)
        except ValueError as e:
            raise ValueError(f"node {self.node}: {e}") from None


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
    n, n_io = len(timelines), params.n_io_nodes
    for tl in timelines:
        tl.ops.check(n_io, tl.node)
    # each rank's columns, read once as python lists; the shared channel
    # is resource slot ``n_io`` of the python-float free / busy lists
    cols = [tl.ops.slot_lists(n_io) for tl in timelines]
    inj = faults
    if inj is not None:
        inj_base = (inj.injected, inj.retries, inj.retry_delay_s)
    free = [0.0] * (n_io + 1)
    busy = [0.0] * (n_io + 1)
    ptr = [0] * n
    credit = [float(tl.overlap_credit_s) for tl in timelines]
    # a node's next arrival while it has requests, then its finish time
    clock = [0.0] * n
    waited = 0
    wait_time = 0.0
    n_events = 0

    def advance(i: int, t: float, j: int) -> tuple[float, int]:
        """Walk node i past compute ops from op j at t, recording them."""
        kind, _, seconds, _ = cols[i]
        while j < len(kind) and kind[j] == K_COMPUTE:
            d = seconds[j]
            if events is not None and d > 0.0:
                events.append(SimEvent(i, "compute", 0, t, t, t + d))
            t += d
            j += 1
        return t, j

    for i in range(n):
        clock[i], ptr[i] = advance(i, 0.0, 0)
    # (arrival, node) of every node's next request: the head is served
    # in place, then re-keyed (heapreplace) or popped when its node is done
    heap = [(clock[i], i) for i in range(n) if ptr[i] < len(cols[i][0])]
    heapq.heapify(heap)
    try:
        while heap:
            arrival, i = heap[0]
            kind, slot, seconds, writes = cols[i]
            j = ptr[i]
            res, service_s = slot[j], seconds[j]
            if inj is None or res == n_io:  # net requests are never perturbed
                start = free[res]
                if start < arrival:
                    start = arrival
                done = start + service_s
                free[res] = done
                busy[res] += service_s
            else:
                # perturbed, fallible request: each attempt waits for the
                # queue and any outage covering it, occupies the I/O node
                # for the multiplied service time, and a failed attempt
                # backs off before re-queueing.  The recorded wait spans
                # arrival to the *first* attempt's start; retries extend
                # ``done`` (and the node's blocked time) instead.
                ready, n_failed = arrival, 0
                while True:
                    start_a = inj.sim_defer(res, max(ready, free[res]))
                    svc = service_s * inj.sim_multiplier(res, start_a)
                    done = start_a + svc
                    free[res] = done
                    busy[res] += svc
                    if n_failed == 0:
                        start = start_a
                    if not inj.sim_error(res, writes[j], start_a):
                        break
                    n_failed += 1
                    if n_failed > inj.policy.max_retries:
                        inj.sim_give_up(res, writes[j], done, n_failed)
                    ready = done + inj.sim_retry_delay(n_failed, done)
            if start > arrival:
                waited += 1
                wait_time += start - arrival
            if events is not None:
                events.append(SimEvent(
                    i, KINDS[kind[j]], NET if res == n_io else res,
                    arrival, start, done,
                ))
            if metrics is not None:
                metrics.histogram("sim.queue_wait_us").observe(
                    (start - arrival) * 1e6
                )
                metrics.histogram("sim.service_us").observe(
                    service_s * 1e6
                )
                metrics.counter(f"sim.{KINDS[kind[j]]}_requests").inc()
            n_events += 1
            # double-buffered prefetch: spend overlap credit to hide
            # blocked time under the preceding compute (the data was
            # fetched early)
            if credit[i]:
                use = min(credit[i], done - arrival)
                credit[i] -= use
                t = max(arrival, done - use)
            else:
                t = done
            j += 1
            if events is None:
                while j < len(kind) and kind[j] == K_COMPUTE:
                    t += seconds[j]
                    j += 1
            else:
                t, j = advance(i, t, j)
            clock[i] = t
            if j < len(kind):
                ptr[i] = j
                heapq.heapreplace(heap, (t, i))
            else:
                heapq.heappop(heap)
    finally:
        _prof.WORK.sim_events += n_events

    result = SimResult(
        max(clock) if clock else 0.0,
        clock,
        np.array(busy[:n_io]),
        busy[n_io],
        waited,
        wait_time,
        n_events,
    )
    if inj is not None:
        result.faults_injected = inj.injected - inj_base[0]
        result.fault_retries = inj.retries - inj_base[1]
        result.fault_retry_delay_s = inj.retry_delay_s - inj_base[2]
    return result


def io_node_of(params: MachineParams, global_elem):
    """The I/O node servicing a request's first stripe — where the
    closed-form model charges the latency, and where the event model
    queues the whole request (an int, or an array of them)."""
    return (global_elem // params.stripe_elements) % params.n_io_nodes


def io_ops(params: MachineParams, calls: CallTable) -> OpTable:
    """One blocking ``io`` op per traced call: queued whole at the I/O
    node of its first stripe (:func:`io_node_of`), for its serial
    ``call_time``."""
    return OpTable(
        K_IO,
        io_node_of(params, calls.base + calls.offset),
        params.call_time(calls.length * params.element_size),
        calls.is_write,
    )


def nest_ops(params: MachineParams, nest_run, keep=None) -> OpTable:
    """Timeline ops of one :class:`~repro.engine.executor.NestRun` under
    independent execution: the traced calls in issue order, with the
    nest's compute spread evenly around them (the executor does not
    timestamp compute between calls, so an even spread is the
    deterministic choice — exact in total).

    ``keep`` is a boolean mask over the ``reps × calls`` traced calls,
    repetition-major in issue order (position ``rep * n_calls + k`` is
    repetition ``rep``'s ``k``-th call); a false entry drops that call's
    I/O op from the timeline (the compute around it stays).  The serving
    layer's shared tile cache is such a mask: a hit costs no I/O-node
    service."""
    if nest_run.trace is None:
        raise ValueError(
            f"nest {nest_run.nest_name!r} carries no trace; build the "
            "executor with trace=True to event-simulate the run"
        )
    io = io_ops(params, nest_run.trace)
    reps = max(1, nest_run.trace_weight)
    n_calls = len(io)
    compute_rep = nest_run.stats.compute_time_s / reps
    chunk = compute_rep / (n_calls + 1)
    # one repetition: a compute gap before every call and after the
    # last — kept as rows of their own, so dropping a call leaves two
    # gaps to be added one after the other, as the clock would
    step = 2 if chunk > 0.0 else 1
    is_io = np.zeros(step * n_calls + step - 1, dtype=bool)
    is_io[step - 1::step] = True
    cols = []
    for gap, col in zip((K_COMPUTE, 0, chunk, False), io.cols):
        rep = np.full(is_io.size, gap, dtype=col.dtype)
        rep[is_io] = col
        cols.append(np.tile(rep, reps))
    ops = OpTable(*cols)
    if keep is None:
        return ops
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (reps * n_calls,):
        raise ValueError(
            f"keep mask of nest {nest_run.nest_name!r} has shape "
            f"{keep.shape}, expected {reps} repetitions x {n_calls} calls"
        )
    kept = np.ones(len(ops), dtype=bool)
    kept[np.tile(is_io, reps)] = keep
    return ops.select(kept)


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
    ops = OpTable.concat(nest_ops(params, nr) for nr in result.nest_runs)
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
