"""Two-phase planner: conforming partition, aggregator merge pricing,
message conservation, and the win/lose decision."""

import numpy as np
import pytest

from repro.collective.planner import (
    CollectiveConfig,
    choose_aggregators,
    conforming_partition,
    io_node_loads,
    plan_nest_collective,
    union_runs,
)
from repro.runtime import IOContext, MachineParams
from repro.runtime.stats import plan_runs

PARAMS = MachineParams(
    n_io_nodes=4,
    stripe_bytes=16 * 8,          # 16-element stripes
    io_latency_s=0.01,
    io_bandwidth_bps=8e3,
    max_request_bytes=64 * 8,
)


class TestConfig:
    def test_defaults_valid(self):
        cfg = CollectiveConfig()
        assert cfg.mode == "auto" and cfg.simulator == "event"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "sometimes"},
            {"simulator": "analytic"},
            {"cb_nodes": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CollectiveConfig(**kwargs)


class TestConformingPartition:
    def test_covers_range_contiguously(self):
        doms = conforming_partition(PARAMS, 5, 200, 3)
        assert doms[0][0] == 5 and doms[-1][1] == 200
        for (a, b), (c, d) in zip(doms, doms[1:]):
            assert b == c

    def test_interior_bounds_stripe_aligned(self):
        se = PARAMS.stripe_elements
        doms = conforming_partition(PARAMS, 0, 20 * se, 4)
        for _, end in doms[:-1]:
            assert end % se == 0

    def test_more_domains_than_stripes(self):
        se = PARAMS.stripe_elements
        doms = conforming_partition(PARAMS, 0, 2 * se, 5)
        nonempty = [d for d in doms if d[1] > d[0]]
        assert len(nonempty) == 2
        assert sum(b - a for a, b in doms) == 2 * se

    def test_empty_range(self):
        assert conforming_partition(PARAMS, 7, 7, 3) == [(7, 7)] * 3


class TestUnionRuns:
    def test_overlapping_runs_merge(self):
        off, ln = union_runs(
            np.array([0, 4, 20]), np.array([8, 8, 4])
        )
        assert off.tolist() == [0, 20]
        assert ln.tolist() == [12, 4]

    def test_duplicate_runs_collapse(self):
        off, ln = union_runs(np.array([8, 8]), np.array([4, 4]))
        assert off.tolist() == [8] and ln.tolist() == [4]

    def test_contained_run_absorbed(self):
        off, ln = union_runs(np.array([0, 2]), np.array([10, 3]))
        assert off.tolist() == [0] and ln.tolist() == [10]


class TestChooseAggregators:
    def test_spread_over_ranks(self):
        assert choose_aggregators(8, 4) == (0, 2, 5, 7)

    def test_capped_at_nodes(self):
        assert choose_aggregators(2, 16) == (0, 1)


class TestIONodeLoads:
    def test_matches_record_runs(self):
        """The planner's load vector must reproduce the recorder's
        striping arithmetic exactly."""
        offsets = np.array([3, 40, 100, 130], dtype=np.int64)
        lengths = np.array([20, 10, 25, 2], dtype=np.int64)
        ctx = IOContext(PARAMS)
        ctx.record_runs(0, offsets, lengths, is_write=False)
        np.testing.assert_allclose(
            io_node_loads(PARAMS, offsets, lengths), ctx.io_node_load
        )

    def test_is_the_recorders_function(self):
        """One stripe-load function: the collective package re-exports
        the one ``IOContext.record_runs`` calls, not a copy of it."""
        import repro.collective
        from repro.runtime import stats

        assert io_node_loads is stats.io_node_loads
        assert repro.collective.io_node_loads is stats.io_node_loads

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_record_call_on_random_runs(self, seed):
        """Pinned against the scalar reference (kept here: one call at a
        time, its stripes one at a time): random final calls, most
        spanning several 16-element stripes.  ``record_call`` is a batch
        of one call of the same kernel, so call by call the floats are
        the reference's; all calls as *one segment* add the same terms
        latencies first, then stripe by stripe."""
        rng = np.random.default_rng(seed)
        offsets = rng.integers(0, 2000, size=60).astype(np.int64)
        lengths = rng.integers(
            1, PARAMS.max_request_elements + 1, size=60
        ).astype(np.int64)
        assert (lengths > 3 * PARAMS.stripe_elements).any()
        base = int(rng.integers(0, 100))

        se, per_el = PARAMS.stripe_elements, (
            PARAMS.element_size / PARAMS.io_bandwidth_bps
        )
        scalar = [0.0] * PARAMS.n_io_nodes
        for o, ln in zip(offsets.tolist(), lengths.tolist()):
            start, end = base + o, base + o + ln
            scalar[start // se % PARAMS.n_io_nodes] += PARAMS.io_latency_s
            for stripe in range(start // se, (end - 1) // se + 1):
                s0, s1 = max(start, stripe * se), min(end, (stripe + 1) * se)
                scalar[stripe % PARAMS.n_io_nodes] += (s1 - s0) * per_el

        ref = IOContext(PARAMS)
        for o, ln in zip(offsets, lengths):
            ref.record_call(base, int(o), int(ln), is_write=False)
        assert ref.io_node_load.tolist() == scalar
        # the same calls as one batch of one-call segments
        each = IOContext(PARAMS)
        ones = np.ones(60, dtype=np.int64)
        each.record_runs(base * ones, offsets, lengths, ones == 0, ones)
        assert each.io_node_load.tolist() == scalar
        assert each.stats == ref.stats

        got = io_node_loads(PARAMS, base + offsets, lengths)
        np.testing.assert_allclose(got, scalar, rtol=1e-12)
        # accumulating into a running vector adds to it, in place
        out = got.copy()
        assert io_node_loads(PARAMS, base + offsets, lengths, out) is out
        np.testing.assert_allclose(out, 2 * np.array(scalar), rtol=1e-12)
        # and the batched recorder is that same arithmetic, bit for bit
        ctx = IOContext(PARAMS)
        ctx.record_runs(base, offsets, lengths, is_write=False)
        assert ctx.io_node_load.tolist() == got.tolist()


def _trace(runs, base=0, write=False):
    return [(base, off, ln, write) for off, ln in runs]


class TestPlanNest:
    def test_no_requests_returns_none(self):
        assert plan_nest_collective(PARAMS, "n", [[], []]) is None

    def test_single_node_cb1_prices_like_plan_runs(self):
        """One node, one aggregator: the aggregator's calls are exactly
        ``plan_runs`` over the node's (unioned) runs — bit-identical
        pricing with the independent path's pure planner."""
        runs = [(0, 10), (30, 10), (70, 100)]
        plan = plan_nest_collective(
            PARAMS, "n", [_trace(runs)], cb_nodes=1
        )
        exp_off, exp_len = plan_runs(
            PARAMS,
            np.array([o for o, _ in runs]),
            np.array([l for _, l in runs]),
        )
        (access,) = plan.accesses
        assert access.agg_offsets[0].tolist() == exp_off.tolist()
        assert access.agg_lengths[0].tolist() == exp_len.tolist()
        assert plan.two_phase_calls == exp_off.size
        # the single node is its own aggregator: nothing to redistribute
        assert plan.redist_messages == 0

    def test_message_volume_conservation(self):
        """Every requested element is either aggregator-local or covered
        by exactly one message."""
        se = PARAMS.stripe_elements
        traces = [
            _trace([(k * 4, 2) for k in range(16)]),        # rank 0
            _trace([(k * 4 + 2, 2) for k in range(16)]),    # rank 1
            _trace([(64 * se, 4 * se)]),                    # rank 2
        ]
        plan = plan_nest_collective(PARAMS, "n", traces, cb_nodes=2)
        requested = sum(
            ln for t in traces for _, _, ln, _ in t
        )
        local = 0
        for access in plan.accesses:
            for a_idx, agg_rank in enumerate(plan.aggregators):
                dlo, dhi = access.domains[a_idx]
                for _, off, ln, _ in traces[agg_rank]:
                    local += max(
                        0, min(off + ln, dhi) - max(off, dlo)
                    )
        assert plan.redist_elements + local == requested

    def test_reads_and_writes_planned_separately(self):
        traces = [
            _trace([(0, 8)]) + _trace([(0, 8)], write=True),
            _trace([(8, 8)]) + _trace([(8, 8)], write=True),
        ]
        plan = plan_nest_collective(PARAMS, "n", traces, cb_nodes=1)
        directions = sorted(a.is_write for a in plan.accesses)
        assert directions == [False, True]

    def test_interleaved_pattern_wins(self):
        """Four nodes with interleaved short runs (a non-conforming
        layout): aggregation merges them into long contiguous calls."""
        n, chunk = 4, 2
        traces = [
            _trace([(k * n * chunk + r * chunk, chunk) for k in range(64)])
            for r in range(n)
        ]
        plan = plan_nest_collective(PARAMS, "n", traces, cb_nodes=2)
        assert plan.call_reduction >= 2.0
        assert plan.wins
        assert plan.two_phase_cost_s < plan.independent_cost_s

    def test_conforming_pattern_loses(self):
        """Each node already reads one long contiguous slab: nothing to
        merge, and redistribution is pure overhead — the paper's point
        that compile-time layout optimization beats runtime collectives."""
        slab = 64
        traces = [_trace([(r * slab, slab)]) for r in range(4)]
        plan = plan_nest_collective(PARAMS, "n", traces, cb_nodes=2)
        assert not plan.wins

    def test_weight_scales_both_costs(self):
        traces = [_trace([(k * 8, 2) for k in range(32)]) for _ in (0, 1)]
        p1 = plan_nest_collective(PARAMS, "n", traces, weight=1)
        p5 = plan_nest_collective(PARAMS, "n", traces, weight=5)
        assert p5.independent_cost_s == pytest.approx(5 * p1.independent_cost_s)
        assert p5.two_phase_cost_s == pytest.approx(5 * p1.two_phase_cost_s)
        assert p5.wins == p1.wins
