"""Event-driven simulator: determinism, reduction to the closed form,
FIFO contention, the shared net channel, and overlap credit.

The event loop is one tight loop over python lists, the shared channel
one more resource slot.  The heap loop it replaced — numpy free/busy
arrays, a separate channel, a ``schedule`` call plus a push and a pop
per event — is kept here unedited as the reference model
(:func:`_reference_simulate`), and generated timelines (with and without
faults, events and metrics) are run through both side by side: every
``SimResult`` field, the full event list and the metrics snapshot agree
exactly.  Where the reference returns ``np.float64`` (a queue wait won a
``max``) the loop returns a python ``float`` of the same value.
"""

from __future__ import annotations

import heapq
from dataclasses import fields, replace
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import MachineParams, OOCExecutor
from repro.collective.sim import (
    K_COMPUTE,
    K_IO,
    K_NET,
    KINDS,
    NET,
    NodeTimeline,
    OpTable,
    SimEvent,
    SimOp,
    SimResult,
    event_makespan,
    io_node_of,
    nest_ops,
    simulate,
)
from repro.engine.executor import NestRun
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LatencyWindow,
    Outage,
    ResiliencePolicy,
    TransientIOError,
)
from repro.obs import MetricsRegistry
from repro.obs import profile as _prof
from repro.parallel.model import makespan
from repro.runtime.stats import IOStats

PARAMS = MachineParams(n_io_nodes=4)


def io(node, service):
    return SimOp("io", resource=node, service_s=service)


def compute(d):
    return SimOp("compute", duration_s=d)


def net(service):
    return SimOp("net", resource=NET, service_s=service)


class TestSimulateCore:
    def test_empty(self):
        res = simulate(PARAMS, [])
        assert res.makespan_s == 0.0 and res.n_events == 0

    def test_compute_only(self):
        res = simulate(PARAMS, [NodeTimeline(0, [compute(1.5), compute(0.5)])])
        assert res.makespan_s == 2.0
        assert res.n_events == 0  # compute never enters a queue

    def test_serial_no_contention_is_sum(self):
        """One node: makespan is exactly serial compute + io."""
        tl = NodeTimeline(0, [compute(1.0), io(2, 0.25), compute(0.5), io(2, 0.25)])
        res = simulate(PARAMS, [tl])
        assert res.makespan_s == pytest.approx(2.0)
        assert res.waited_requests == 0
        assert res.io_busy_s[2] == pytest.approx(0.5)

    def test_fifo_contention_hand_computed(self):
        """Two nodes hit I/O node 0: node A arrives at t=0 (service 1.0),
        node B arrives at t=0.5 and must queue until t=1.0."""
        a = NodeTimeline(0, [io(0, 1.0)])
        b = NodeTimeline(1, [compute(0.5), io(0, 1.0)])
        res = simulate(PARAMS, [a, b])
        assert res.node_finish_s[0] == pytest.approx(1.0)
        assert res.node_finish_s[1] == pytest.approx(2.0)
        assert res.waited_requests == 1
        assert res.wait_time_s == pytest.approx(0.5)

    def test_tie_broken_by_node_index(self):
        """Simultaneous arrivals at the same I/O node: lower rank first."""
        a = NodeTimeline(0, [io(1, 0.3)])
        b = NodeTimeline(1, [io(1, 0.3)])
        res = simulate(PARAMS, [a, b])
        assert res.node_finish_s == pytest.approx([0.3, 0.6])

    def test_distinct_io_nodes_parallel(self):
        tls = [NodeTimeline(i, [io(i, 1.0)]) for i in range(4)]
        res = simulate(PARAMS, tls)
        assert res.makespan_s == pytest.approx(1.0)
        assert res.waited_requests == 0

    def test_net_is_single_shared_channel(self):
        """Messages from different nodes serialize on the one channel
        even though I/O nodes would have run them in parallel."""
        tls = [NodeTimeline(i, [net(0.2)]) for i in range(3)]
        res = simulate(PARAMS, tls)
        assert res.makespan_s == pytest.approx(0.6)
        assert res.net_busy_s == pytest.approx(0.6)
        assert res.waited_requests == 2

    def test_determinism(self):
        rng = np.random.default_rng(7)
        tls = [
            NodeTimeline(
                i,
                [
                    op
                    for _ in range(20)
                    for op in (
                        compute(float(rng.random()) * 0.01),
                        io(int(rng.integers(4)), float(rng.random()) * 0.02),
                    )
                ],
            )
            for i in range(6)
        ]
        r1 = simulate(PARAMS, tls)
        r2 = simulate(PARAMS, tls)
        assert r1.makespan_s == r2.makespan_s
        assert r1.node_finish_s == r2.node_finish_s
        assert r1.wait_time_s == r2.wait_time_s


class TestTimelineValidation:
    """A timeline is checked once, where it is tabulated — before any
    event is processed — and the error names the node and the op."""

    @pytest.mark.parametrize("op, match", [
        (io(-1, 1.0), "node 3 op 1"),     # would wrap to the last I/O node
        (io(7, 1.0), "node 3 op 1"),      # would die mid-loop (IndexError)
        (io(0, -1.0), "node 3 op 1"),     # negative busy time
        (io(0, float("nan")), "node 3 op 1"),
        (compute(float("inf")), "node 3 op 1"),
        (net(-0.5), "node 3 op 1"),
        (SimOp("disk", resource=0, service_s=1.0), "node 3: op 1.*'disk'"),
    ])
    def test_unservable_op_is_a_named_error(self, op, match):
        from repro.obs import profile

        before = profile.WORK.sim_events
        with pytest.raises(ValueError, match=match):
            simulate(PARAMS, [
                NodeTimeline(0, [io(0, 1.0)]),
                NodeTimeline(3, [io(1, 1.0), op]),
            ])
        assert profile.WORK.sim_events == before

    def test_net_and_compute_rows_ignore_the_resource_range(self):
        res = simulate(PARAMS, [NodeTimeline(0, [net(0.2), compute(0.1)])])
        assert res.makespan_s == pytest.approx(0.3)

    def test_columns_built_directly_are_checked_too(self):
        ops = OpTable([5], [0], [1.0], [False])  # no such kind
        with pytest.raises(ValueError, match="node 0 op 0"):
            simulate(PARAMS, [NodeTimeline(0, ops)])


class TestOverlapCredit:
    def test_credit_hides_blocked_time(self):
        tl = NodeTimeline(
            0, [compute(1.0), io(0, 0.4)], overlap_credit_s=0.4
        )
        res = simulate(PARAMS, [tl])
        # the whole call hides under the preceding compute
        assert res.node_finish_s[0] == pytest.approx(1.0)

    def test_credit_cannot_rewind_before_arrival(self):
        tl = NodeTimeline(0, [io(0, 0.4)], overlap_credit_s=10.0)
        res = simulate(PARAMS, [tl])
        assert res.node_finish_s[0] == pytest.approx(0.0)

    def test_credit_is_finite(self):
        # distinct I/O nodes, so only the credit (not I/O-node
        # occupancy) decides the second call's fate
        tl = NodeTimeline(
            0,
            [compute(1.0), io(0, 0.4), io(1, 0.4)],
            overlap_credit_s=0.4,
        )
        res = simulate(PARAMS, [tl])
        # first call hidden, second paid in full
        assert res.node_finish_s[0] == pytest.approx(1.4)

    def test_credit_does_not_free_io_node_early(self):
        """Hiding a node's blocked time must not shorten the I/O node's
        occupancy: a second call to the same I/O node still queues."""
        tl = NodeTimeline(
            0,
            [compute(1.0), io(0, 0.4), io(0, 0.4)],
            overlap_credit_s=0.4,
        )
        res = simulate(PARAMS, [tl])
        assert res.node_finish_s[0] == pytest.approx(1.8)
        assert res.waited_requests == 1

    def test_credit_never_slower(self):
        ops = [compute(0.3), io(1, 0.2), compute(0.3), io(1, 0.2)]
        base = simulate(PARAMS, [NodeTimeline(0, list(ops))])
        cred = simulate(
            PARAMS, [NodeTimeline(0, list(ops), overlap_credit_s=0.25)]
        )
        assert cred.makespan_s <= base.makespan_s


class TestNestOps:
    def test_missing_trace_raises(self):
        nr = NestRun("n", None, IOStats(), 0, trace=None)
        with pytest.raises(ValueError, match="trace"):
            nest_ops(PARAMS, nr)

    def test_compute_total_preserved(self):
        nr = NestRun(
            "n",
            None,
            IOStats(compute_time_s=3.0),
            0,
            trace=[(0, 0, 8, False), (0, 16, 8, False)],
            trace_weight=3,
        )
        ops = nest_ops(PARAMS, nr)
        assert sum(o.duration_s for o in ops if o.kind == "compute") == (
            pytest.approx(3.0)
        )
        assert sum(1 for o in ops if o.kind == "io") == 6

    @pytest.mark.parametrize("trace", [
        [(0, 0, 8, False), (0, 16, 8, True), (64, 3, 5, False)],
        [],  # compute-only nest: one compute op per repetition
    ])
    def test_keep_everything_hook_equals_no_hook(self, trace):
        nr = NestRun(
            "n", None, IOStats(compute_time_s=3.0), 0,
            trace=trace, trace_weight=3,
        )
        full = nest_ops(PARAMS, nr)
        assert nest_ops(PARAMS, nr, np.ones(3 * len(trace), bool)) == full
        # one mask entry per traced call, repetition-major in issue
        # order: dropping position rep * n_calls + k removes exactly
        # repetition rep's k-th call
        io_rows = [k for k, o in enumerate(full) if o.kind == "io"]
        assert len(io_rows) == 3 * len(trace)
        for pos, row in enumerate(io_rows):
            mask = np.ones(len(io_rows), bool)
            mask[pos] = False
            assert nest_ops(PARAMS, nr, mask) == [
                o for k, o in enumerate(full) if k != row
            ]
            base, off, ln, is_write = trace[pos % len(trace)]
            assert full[row] == SimOp(
                "io",
                resource=io_node_of(PARAMS, base + off),
                service_s=PARAMS.call_time(ln * PARAMS.element_size),
                is_write=is_write,
            )

    def test_dropping_hook_removes_only_io(self):
        trace = [(0, 0, 8, False), (0, 16, 8, True)]
        nr = NestRun(
            "n", None, IOStats(compute_time_s=3.0), 0,
            trace=trace, trace_weight=2,
        )
        full = nest_ops(PARAMS, nr)
        reads_dropped = nest_ops(
            PARAMS, nr, [e[3] for _ in range(2) for e in trace]
        )
        assert reads_dropped == [
            o for o in full if o.kind == "compute" or o.is_write
        ]

    @pytest.mark.parametrize("n", [0, 3, 5])
    def test_mask_of_the_wrong_length_is_an_error(self, n):
        nr = NestRun(
            "n", None, IOStats(compute_time_s=3.0), 0,
            trace=[(0, 0, 8, False), (0, 16, 8, True)], trace_weight=2,
        )
        with pytest.raises(ValueError, match="2 repetitions x 2 calls"):
            nest_ops(PARAMS, nr, np.ones(n, bool))

    def test_io_routed_to_first_stripe_node(self):
        se = PARAMS.stripe_elements
        nr = NestRun(
            "n", None, IOStats(), 0, trace=[(0, 5 * se, 4, False)]
        )
        (op,) = nest_ops(PARAMS, nr)
        assert op.resource == io_node_of(PARAMS, 5 * se) == 5 % 4


def _run_nodes(n_nodes, version="col", n=32):
    from repro.ir import ProgramBuilder
    from repro.optimizer import build_version
    from repro.runtime import ParallelFileSystem

    b = ProgramBuilder("trans", params=("N",), default_binding={"N": n})
    N = b.param("N")
    A, B = b.array("A", (N, N)), b.array("B", (N, N))
    with b.nest("t") as nb:
        i, j = nb.loop("i", 1, N), nb.loop("j", 1, N)
        nb.assign(A[i, j], B[j, i] + 1.0)
    cfg = build_version(version, b.build())

    params = MachineParams(n_io_nodes=4)
    binding = cfg.program.binding(None)
    total = sum(int(np.prod(a.shape(binding))) for a in cfg.program.arrays)
    budget = max(64, total // params.memory_fraction)
    stagger = max(1, total // max(1, n_nodes))
    results = []
    for rank in range(n_nodes):
        pfs = ParallelFileSystem(params)
        pfs.advance(rank * stagger)
        ex = OOCExecutor(
            cfg.program,
            cfg.layouts,
            params=params,
            binding=binding,
            memory_budget=budget,
            backend="simulate",
            tiling=cfg.tiling,
            storage_spec=cfg.storage_spec,
            pfs=pfs,
            node_slice=(rank, n_nodes) if n_nodes > 1 else None,
            trace=True,
        )
        results.append(ex.run())
    return params, results


class TestReduction:
    def test_single_node_matches_closed_form(self):
        """Acceptance criterion: with no contention possible the event
        sim reduces to ``makespan()`` within 1% (in fact exactly)."""
        params, results = _run_nodes(1)
        closed = makespan(results)
        sim = event_makespan(params, results)
        assert sim.makespan_s == pytest.approx(closed, rel=0.01)
        assert sim.waited_requests == 0

    def test_contention_only_adds_time(self):
        params, results = _run_nodes(4)
        closed = makespan(results)
        sim = event_makespan(params, results)
        assert sim.makespan_s >= closed * (1 - 1e-12)


# -- the reference: the heap loop, as it was --------------------------------


def _reference_simulate(
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
    for tl in timelines:
        tl.ops.check(params.n_io_nodes, tl.node)
    # each rank's columns, read once as python lists
    cols = [tl.ops.lists() for tl in timelines]
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
        kind, _, seconds, _ = cols[i]
        t, j = clock[i], ptr[i]
        while j < len(kind) and kind[j] == K_COMPUTE:
            d = seconds[j]
            if events is not None and d > 0.0:
                events.append(SimEvent(i, "compute", 0, t, t, t + d))
            t += d
            j += 1
        clock[i], ptr[i] = t, j
        if j < len(kind):
            heapq.heappush(heap, (t, i))
        else:
            finish[i] = t

    for i in range(n):
        schedule(i)
    try:
        while heap:
            arrival, i = heapq.heappop(heap)
            kinds, resources, seconds, writes = cols[i]
            j = ptr[i]
            kind, res, service_s = kinds[j], resources[j], seconds[j]
            if kind == K_NET:
                start = max(arrival, net_free)
                done = start + service_s
                net_free = done
                net_busy += service_s
            elif inj is None:
                start = max(arrival, io_free[res])
                done = start + service_s
                io_free[res] = done
                io_busy[res] += service_s
            else:
                # perturbed, fallible request: each attempt waits for the
                # queue and any outage covering it, occupies the I/O node
                # for the multiplied service time, and a failed attempt
                # backs off before re-queueing.  The recorded wait spans
                # arrival to the *first* attempt's start; retries extend
                # ``done`` (and the node's blocked time) instead.
                t, n_failed = arrival, 0
                start = done = arrival
                while True:
                    start_a = inj.sim_defer(res, max(t, io_free[res]))
                    svc = service_s * inj.sim_multiplier(res, start_a)
                    done = start_a + svc
                    io_free[res] = done
                    io_busy[res] += svc
                    if n_failed == 0:
                        start = start_a
                    if not inj.sim_error(res, writes[j], start_a):
                        break
                    n_failed += 1
                    if n_failed > inj.policy.max_retries:
                        inj.sim_give_up(res, writes[j], done, n_failed)
                    t = done + inj.sim_retry_delay(n_failed, done)
            if start > arrival:
                waited += 1
                wait_time += start - arrival
            if events is not None:
                events.append(
                    SimEvent(
                        i,
                        KINDS[kind],
                        res if kind == K_IO else NET,
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
                    service_s * 1e6
                )
                metrics.counter(f"sim.{KINDS[kind]}_requests").inc()
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


# -- the one tight loop against the reference -------------------------------

#: dyadic seconds add exactly, so arrivals on different nodes tie often
SECONDS = st.one_of(
    st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]),
    st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
)


def _ops(n_io):
    return st.one_of(
        st.builds(compute, SECONDS),
        st.builds(
            lambda r, s, w: SimOp("io", resource=r, service_s=s, is_write=w),
            st.integers(0, n_io - 1), SECONDS, st.booleans(),
        ),
        # a net row's resource is not read: NET or anything else
        st.builds(
            lambda r, s: SimOp("net", resource=r, service_s=s),
            st.sampled_from([NET, 0]), SECONDS,
        ),
    )


@st.composite
def machines(draw):
    """(params, timelines): 1–6 nodes, 1–4 I/O nodes, mixed ops, some
    nodes with overlap credit."""
    n_io = draw(st.integers(1, 4))
    timelines = [
        NodeTimeline(
            node,
            draw(st.lists(_ops(n_io), max_size=12)),
            overlap_credit_s=draw(st.one_of(st.just(0.0), SECONDS)),
        )
        for node in range(draw(st.integers(1, 6)))
    ]
    return MachineParams(n_io_nodes=n_io), timelines


#: the node tie-break decides who waits: both requests arrive at t = 0
TIE = (
    MachineParams(n_io_nodes=1),
    [NodeTimeline(0, [io(0, 1.0)]), NodeTimeline(1, [io(0, 0.5)])],
)
#: credit hides the first call; the second queues behind the first
CREDIT = (
    MachineParams(n_io_nodes=1),
    [NodeTimeline(0, [compute(1.0), io(0, 0.4), io(0, 0.4)],
                  overlap_credit_s=0.3)],
)

#: what ``SimResult`` declares each field to be
FIELD_TYPES = dict(
    makespan_s=float, net_busy_s=float, wait_time_s=float,
    fault_retry_delay_s=float, waited_requests=int, n_events=int,
    faults_injected=int, fault_retries=int,
)


def assert_same_result(got, want):
    """Every field ``==`` the reference's, and of its declared type."""
    for f in fields(SimResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "io_busy_s":
            assert type(a) is np.ndarray and a.dtype == np.float64
            assert np.array_equal(a, b)
        elif f.name == "node_finish_s":
            assert a == b and all(type(x) is float for x in a)
        else:
            assert a == b, f.name
            assert type(a) is FIELD_TYPES[f.name], f.name


def assert_same_events(got, want):
    assert got == want
    assert all(
        type(t) is float
        for e in got for t in (e.arrival_s, e.start_s, e.end_s)
    )


def run_both(params, timelines):
    """(result, events, metrics) of the loop and of the reference."""
    out = []
    for sim in (simulate, _reference_simulate):
        events, reg = [], MetricsRegistry()
        out.append((sim(params, timelines, events=events, metrics=reg),
                    events, reg.to_dict()))
    return out


class TestOneLoopEqualsTheHeapLoop:
    @settings(max_examples=150, deadline=None)
    @given(machines())
    @example(TIE)
    @example(CREDIT)
    def test_results_events_and_metrics(self, machine):
        params, timelines = machine
        (got, got_ev, got_m), (want, want_ev, want_m) = run_both(
            params, timelines
        )
        assert_same_result(got, want)
        assert_same_events(got_ev, want_ev)
        assert got_m == want_m
        # recording changes nothing
        assert_same_result(simulate(params, timelines), want)


def _plan(seed, n_io, **kw):
    return FaultPlan(
        seed=seed,
        stragglers={n_io - 1: 2.0},
        latency_windows=(LatencyWindow(0, 0.25, 1.5, 3.0),),
        outages=(Outage(0, 0.5, 1.0),),
        **kw,
    )


def run_both_faulty(params, timelines, plan, policy):
    """As :func:`run_both`, each side with its own injector of the same
    plan: (result or error message, events, metrics, injector)."""
    out = []
    for sim in (simulate, _reference_simulate):
        inj = FaultInjector(plan, policy)
        events, reg = [], MetricsRegistry()
        try:
            res = sim(params, timelines, events=events, metrics=reg,
                      faults=inj)
        except TransientIOError as e:
            res = str(e)
        out.append((res, events, reg.to_dict(), inj))
    return out


class TestFaultsEqualTheHeapLoop:
    """Outages, stragglers, latency windows and error draws with retries
    and backoff perturb ``io`` requests identically in both loops."""

    @settings(max_examples=100, deadline=None)
    @given(
        machines(),
        st.integers(0, 2**16),
        st.sampled_from([0.0, 0.2, 0.5]),
        st.integers(0, 4),
        st.sampled_from([0.0, 0.5]),
    )
    def test_perturbed_runs(self, machine, seed, rate, retries, jitter):
        params, timelines = machine
        plan = _plan(seed, params.n_io_nodes, read_error_rate=rate,
                     write_error_rate=rate / 2)
        policy = ResiliencePolicy(
            max_retries=retries, backoff_base_s=0.125, jitter=jitter
        )
        (got, got_ev, got_m, got_inj), (want, want_ev, want_m, want_inj) = (
            run_both_faulty(params, timelines, plan, policy)
        )
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_result(got, want)
            assert got_m == want_m
        assert_same_events(got_ev, want_ev)
        for name in ("injected", "retries", "retry_delay_s", "events"):
            assert getattr(got_inj, name) == getattr(want_inj, name), name

    def test_give_up(self):
        """Scheduled errors on the first three attempts against a budget
        of two retries: the first request gives up, named identically."""
        params = MachineParams(n_io_nodes=2)
        timelines = [
            NodeTimeline(0, [io(0, 0.25), compute(0.5), io(1, 0.25)]),
            NodeTimeline(1, [net(0.125), io(0, 0.25)]),
        ]
        plan = _plan(1, 2, error_ops=frozenset({0, 1, 2}))
        policy = ResiliencePolicy(max_retries=2, backoff_base_s=0.125)
        (got, got_ev, _, got_inj), (want, want_ev, _, want_inj) = (
            run_both_faulty(params, timelines, plan, policy)
        )
        assert isinstance(want, str) and "after 3 attempt(s)" in want
        assert got == want
        assert_same_events(got_ev, want_ev)
        assert (got_inj.injected, got_inj.retries, got_inj.retry_delay_s) == (
            want_inj.injected, want_inj.retries, want_inj.retry_delay_s
        ) == (3, 2, 0.375)
        assert got_inj.events == want_inj.events


class TestTypeStableMakespan:
    def test_contended_collective_run_returns_python_floats(self):
        """``mat`` / ``col`` on 4 nodes queues (a wait wins the ``max``,
        where the heap loop returned ``np.float64``)."""
        from repro.collective import CollectiveConfig
        from repro.experiments.harness import _scaled_params
        from repro.optimizer import build_version
        from repro.parallel import run_version_parallel
        from repro.workloads import build_workload

        params = replace(_scaled_params(16), n_io_nodes=4)
        cfg = build_version(
            "col", build_workload("mat", 16), params=params, n_nodes=4
        )
        run = run_version_parallel(
            cfg, 4, params=params, trace=True,
            collective=CollectiveConfig(mode="auto"),
        )
        sim = run.collective.sim
        assert sim.waited_requests > 0
        assert type(run.time_s) is float
        assert all(type(t) is float for t in sim.node_finish_s)
