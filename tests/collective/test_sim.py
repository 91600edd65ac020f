"""Event-driven simulator: determinism, reduction to the closed form,
FIFO contention, the shared net channel, and overlap credit."""

import numpy as np
import pytest

from repro import MachineParams, OOCExecutor
from repro.collective.sim import (
    NET,
    NodeTimeline,
    OpTable,
    SimOp,
    event_makespan,
    io_node_of,
    nest_ops,
    simulate,
)
from repro.engine.executor import NestRun
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
            real=False,
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
