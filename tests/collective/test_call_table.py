"""A nest's I/O trace is one columnar value and every re-pricer a fold.

The trace used to be a python list of ``(file_base, offset, length,
is_write)`` tuples that six places walked per call: ``record_runs``
converted ``plan_runs``' arrays into tuples, the collective planner
regrouped them into a dict of lists per rank, ``_account_independent``
turned them back into arrays, ``nest_ops`` built one ``SimOp`` per call
per repetition, and ``nest_records`` folded them once more.  Those loops
are kept here as the reference models (``ref_*``) and hypothesis-drawn
traces — made by the real producer, ``IOContext.record_runs``, with runs
past the request cap — are run through both side by side: rows, plans
(floats with ``==``), records, loads (``array_equal``: ``io_node_loads``
accumulates in call order) and timelines agree exactly.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collective import CollectiveConfig
from repro.collective import planner as P
from repro.collective.sim import (
    NodeTimeline,
    OpTable,
    SimOp,
    io_node_of,
    nest_ops,
    simulate,
)
from repro.engine.executor import NestRun
from repro.faults import FaultInjector, FaultPlan, ResiliencePolicy
from repro.obs import io_record, nest_records
from repro.parallel import run_version_parallel, spmd
from repro.runtime import IOContext, MachineParams
from repro.runtime.stats import CallTable, IOStats, io_node_loads, plan_runs

#: a 16-element request cap and 4-element stripes, so drawn runs split
#: into several calls and span several I/O nodes
PARAMS = MachineParams(
    n_io_nodes=4, stripe_bytes=4 * 8, max_request_bytes=16 * 8
)


# -- the reference: tuple lists and per-call loops --------------------------


def ref_record_runs(params, base, offsets, lengths, is_write):
    """``record_runs``' trace rows, one tuple per planned call."""
    offsets, lengths = plan_runs(params, offsets, lengths)
    return [(base, int(o), int(l), is_write) for o, l in zip(offsets, lengths)]


def ref_nest_ops(params, trace, weight, compute_time_s):
    ops = []
    reps = max(1, weight)
    chunk = compute_time_s / reps / (len(trace) + 1)
    for _rep in range(reps):
        for base, off, ln, is_write in trace:
            if chunk > 0.0:
                ops.append(SimOp("compute", duration_s=chunk))
            ops.append(SimOp(
                "io",
                resource=io_node_of(params, base + off),
                service_s=params.call_time(ln * params.element_size),
                is_write=is_write,
            ))
        if chunk > 0.0:
            ops.append(SimOp("compute", duration_s=chunk))
    return ops


def ref_nest_records(params, nest_name, trace, weight, file_names, node, path):
    w = max(1, weight)
    by_file = {}
    for base, _off, ln, is_write in trace:
        counts = by_file.setdefault(base, [0, 0, 0, 0])
        k = 1 if is_write else 0
        counts[k] += w
        counts[2 + k] += ln * w
    return [
        io_record(
            params, nest_name, file_names.get(base, f"file@{base}"),
            node, path, counts,
        )
        for base, counts in by_file.items()
    ]


def ref_independent_loads(params, trace, weight):
    off = np.array([b + o for b, o, _, _ in trace], dtype=np.int64)
    ln = np.array([l for _, _, l, _ in trace], dtype=np.int64)
    return io_node_loads(params, off, ln) * weight


def ref_plan(params, nest_name, traces, weight, cb_nodes):
    """``plan_nest_collective`` with the dict-of-lists grouping."""
    n_nodes = len(traces)
    if n_nodes == 0 or all(len(t) == 0 for t in traces):
        return None
    cb = cb_nodes if cb_nodes is not None else min(n_nodes, params.n_io_nodes)
    aggregators = P.choose_aggregators(n_nodes, cb)
    groups = {}
    ind_time = np.zeros(n_nodes)
    ind_calls = ind_elements = 0
    all_off, all_len = [], []
    for rank, trace in enumerate(traces):
        per_file = {}
        for base, off, ln, is_write in trace:
            per_file.setdefault((base, is_write), []).append((base + off, ln))
        for key, runs in per_file.items():
            off = np.array([o for o, _ in runs], dtype=np.int64)
            ln = np.array([l for _, l in runs], dtype=np.int64)
            groups.setdefault(key, []).append((rank, off, ln))
            ind_calls += off.size
            ind_elements += int(ln.sum())
            ind_time[rank] += params.batch_time(off.size, int(ln.sum()))
            all_off.append(off)
            all_len.append(ln)
    ind_loads = io_node_loads(
        params, np.concatenate(all_off), np.concatenate(all_len)
    )
    independent_cost = max(float(ind_time.max()), float(ind_loads.max())) * weight

    accesses = []
    agg_time = np.zeros(len(aggregators))
    agg_all_off, agg_all_len = [], []
    tp_calls = tp_elements = n_messages = msg_elements = 0
    net_total = 0.0
    for (base, is_write), members in sorted(groups.items()):
        g_off = np.concatenate([o for _, o, _ in members])
        g_len = np.concatenate([l for _, _, l in members])
        domains = P.conforming_partition(
            params, int(g_off.min()), int((g_off + g_len).max()),
            len(aggregators),
        )
        d_offsets, d_lengths, messages = [], [], []
        for a, (dlo, dhi) in enumerate(domains):
            p_off, p_len = plan_runs(
                params, *P.union_runs(*P._clip_runs(g_off, g_len, dlo, dhi))
            )
            d_offsets.append(p_off)
            d_lengths.append(p_len)
            agg_time[a] += params.batch_time(p_off.size, int(p_len.sum()))
            agg_all_off.append(p_off)
            agg_all_len.append(p_len)
            tp_calls += int(p_off.size)
            tp_elements += int(p_len.sum())
            for rank, r_off, r_len in members:
                vol = int(P._clip_runs(r_off, r_len, dlo, dhi)[1].sum())
                if vol == 0 or rank == aggregators[a]:
                    continue
                messages.append((rank, a, vol))
                n_messages += 1
                msg_elements += vol
                net_total += params.net_time(vol * params.element_size)
        accesses.append(P.FileAccessPlan(
            base, is_write, tuple(domains), tuple(d_offsets),
            tuple(d_lengths), tuple(messages),
        ))
    agg_loads = io_node_loads(
        params, np.concatenate(agg_all_off), np.concatenate(agg_all_len)
    )
    two_phase_cost = (
        max(float(agg_time.max()), float(agg_loads.max())) + net_total
    ) * weight
    return P.NestCollectivePlan(
        nest_name, weight, n_nodes, aggregators, tuple(accesses),
        ind_calls, ind_elements, independent_cost, tp_calls, tp_elements,
        n_messages, msg_elements, two_phase_cost,
    )


def assert_plans_equal(got, want):
    assert (got is None) == (want is None)
    if got is None:
        return
    for f in fields(P.NestCollectivePlan):
        if f.name != "accesses":
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert len(got.accesses) == len(want.accesses)
    for a, b in zip(got.accesses, want.accesses):
        assert (a.file_base, a.is_write, a.domains, a.messages) == (
            b.file_base, b.is_write, b.domains, b.messages
        )
        for x, y in zip(
            a.agg_offsets + a.agg_lengths, b.agg_offsets + b.agg_lengths,
            strict=True,
        ):
            assert np.array_equal(x, y)


# -- drawn traces ------------------------------------------------------------


@st.composite
def batches(draw, n_files):
    """``record_runs`` batches of one rank: (file, runs, direction), the
    runs disjoint and ascending, some longer than the request cap."""
    out = []
    for _ in range(draw(st.integers(0, 5)) if n_files else 0):
        steps = draw(st.lists(
            st.tuples(st.integers(0, 9), st.integers(1, 40)),
            min_size=1, max_size=6,
        ))
        offsets, lengths, at = [], [], 0
        for gap, ln in steps:
            offsets.append(at + gap)
            lengths.append(ln)
            at += gap + ln
        out.append((
            draw(st.integers(0, n_files - 1)), np.array(offsets),
            np.array(lengths), draw(st.booleans()),
        ))
    return out


@st.composite
def nests(draw):
    """One nest on 1–4 ranks over 0–3 files: per rank the batches it
    recorded; plus the weight and the per-rank compute seconds."""
    n_files = draw(st.integers(0, 3))
    ranks = draw(st.lists(batches(n_files), min_size=1, max_size=4))
    return (
        ranks, draw(st.integers(1, 3)),
        draw(st.sampled_from([0.0, 0.75, 3.0])),
    )


def record(rank, rank_batches):
    """The rank's batches through the producer and through the
    reference: ``(CallTable, tuple rows)``.  Files are 1000 elements
    apart and staggered per rank like the SPMD driver's."""
    ctx = IOContext(PARAMS, trace=True)
    rows = []
    for file, offsets, lengths, is_write in rank_batches:
        base = 137 * rank + 1000 * file
        ctx.record_runs(base, offsets, lengths, is_write)
        rows += ref_record_runs(PARAMS, base, offsets, lengths, is_write)
    return ctx.trace, rows


def nest_run(table, weight, compute_s):
    return NestRun(
        "n", None, IOStats(compute_time_s=compute_s), 0,
        trace=table, trace_weight=weight,
    )


COMMON = settings(max_examples=60, deadline=None)


class TestRowsAndColumns:
    @COMMON
    @given(nests())
    def test_recorded_table_is_the_tuple_list(self, nest):
        ranks, _, _ = nest
        for rank, rank_batches in enumerate(ranks):
            table, rows = record(rank, rank_batches)
            assert list(table) == rows and table == rows
            assert repr(table) == repr(rows) and len(table) == len(rows)
            assert list(CallTable.of(rows)) == rows
            assert CallTable.of(table) is table
            assert all(type(v) in (int, bool) for r in table for v in r)

    @COMMON
    @given(nests())
    def test_concat_preserves_order(self, nest):
        ranks, _, _ = nest
        recorded = [record(r, b) for r, b in enumerate(ranks)]
        whole = CallTable.concat(t for t, _ in recorded)
        assert list(whole) == [row for _, rows in recorded for row in rows]
        assert list(CallTable.concat([])) == []

    def test_record_call_and_reset(self):
        ctx = IOContext(PARAMS, trace=True)
        ctx.record_call(100, 5, 4, True)
        ctx.record_runs(0, np.array([0]), np.array([20]), False)
        assert ctx.trace == [
            (100, 5, 4, True), (0, 0, 16, False), (0, 16, 4, False),
        ]
        ctx.reset()
        assert ctx.trace == [] and not ctx.trace

    @pytest.mark.parametrize("row", [(0, -1, 4, False), (0, 3, -2, True)])
    def test_hand_written_rows_are_checked(self, row):
        with pytest.raises(ValueError, match="offset >= 0 and length >= 0"):
            CallTable.of([(0, 0, 8, False), row])
        with pytest.raises(ValueError):
            NestRun("n", None, IOStats(), 0, trace=[row])

    def test_ragged_columns_are_an_error(self):
        with pytest.raises(ValueError, match="equally long"):
            CallTable([0, 0], [1], [2, 2], [False, False])
        with pytest.raises(ValueError):
            CallTable.of([(0, 0, 8, False), (0, 8, 8)])


class TestFoldsAgainstTheLoops:
    @COMMON
    @given(nests())
    def test_nest_ops(self, nest):
        ranks, weight, compute_s = nest
        for rank, rank_batches in enumerate(ranks):
            table, rows = record(rank, rank_batches)
            got = nest_ops(PARAMS, nest_run(table, weight, compute_s))
            assert isinstance(got, OpTable)
            assert list(got) == ref_nest_ops(PARAMS, rows, weight, compute_s)

    @COMMON
    @given(nests(), st.sampled_from([None, 1, 2]))
    def test_plan_nest_collective(self, nest, cb_nodes):
        ranks, weight, _ = nest
        recorded = [record(r, b) for r, b in enumerate(ranks)]
        want = ref_plan(
            PARAMS, "n", [rows for _, rows in recorded], weight, cb_nodes
        )
        for traces in ([t for t, _ in recorded], [r for _, r in recorded]):
            got = P.plan_nest_collective(
                PARAMS, "n", traces, weight=weight, cb_nodes=cb_nodes
            )
            assert_plans_equal(got, want)

    @COMMON
    @given(nests())
    def test_nest_records(self, nest):
        ranks, weight, compute_s = nest
        names = {0: "A", 1000: "B"}
        for rank, rank_batches in enumerate(ranks):
            table, rows = record(rank, rank_batches)
            got = nest_records(
                PARAMS, [nest_run(table, weight, compute_s)], names,
                node=rank, path="independent",
            )
            assert got == ref_nest_records(
                PARAMS, "n", rows, weight, names, rank, "independent"
            )
            assert all(
                type(v) in (int, float, str)
                for r in got for v in vars(r).values()
            )

    @COMMON
    @given(nests())
    def test_account_independent(self, nest):
        ranks, weight, compute_s = nest
        recorded = [record(r, b) for r, b in enumerate(ranks)]
        nrs = [nest_run(t, weight, compute_s) for t, _ in recorded]
        n = len(nrs)
        stats = [IOStats() for _ in range(n)]
        loads = [np.zeros(PARAMS.n_io_nodes) for _ in range(n)]
        ops = [[] for _ in range(n)]
        spmd._account_independent(PARAMS, nrs, stats, loads, ops)
        for rank, (_, rows) in enumerate(recorded):
            assert np.array_equal(
                loads[rank], ref_independent_loads(PARAMS, rows, weight)
            )
            assert list(OpTable.concat(ops[rank])) == ref_nest_ops(
                PARAMS, rows, weight, compute_s
            )


def _sim_fields(result):
    return (
        result.makespan_s, result.node_finish_s, result.io_busy_s.tolist(),
        result.net_busy_s, result.waited_requests, result.wait_time_s,
        result.n_events, result.faults_injected, result.fault_retries,
        result.fault_retry_delay_s,
    )


class TestSimulateOnColumns:
    """A timeline built as columns and the same timeline handed in as a
    list of ``SimOp`` rows simulate to the same result and events."""

    @COMMON
    @given(nests(), st.booleans())
    def test_optable_equals_simop_list(self, nest, with_faults):
        ranks, weight, compute_s = nest
        tables = [
            nest_ops(PARAMS, nest_run(record(r, b)[0], weight, compute_s))
            for r, b in enumerate(ranks)
        ]
        seen = []
        for as_rows in (False, True):
            timelines = [
                NodeTimeline(i, list(t) if as_rows else t)
                for i, t in enumerate(tables)
            ]
            assert all(isinstance(tl.ops, OpTable) for tl in timelines)
            inj = FaultInjector(
                FaultPlan(seed=5, read_error_rate=0.2, stragglers={1: 2.0}),
                ResiliencePolicy(max_retries=50),
            ) if with_faults else None
            events = []
            result = simulate(PARAMS, timelines, events=events, faults=inj)
            seen.append((_sim_fields(result), events))
        assert seen[0] == seen[1]


class TestNoRowObjects:
    """The re-pricing paths never go through the row view: with
    ``SimOp`` unconstructible, collective and served runs still run."""

    @pytest.fixture
    def no_simop(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a SimOp row was built on a fold path")

        monkeypatch.setattr("repro.collective.sim.SimOp", boom)

    @pytest.mark.parametrize("mode", ["never", "always"])
    def test_collective_run(self, no_simop, mode):
        from repro.experiments.harness import _scaled_params
        from repro.optimizer import build_version
        from repro.workloads import build_workload

        params = replace(_scaled_params(16), n_io_nodes=4)
        cfg = build_version(
            "col", build_workload("adi", 16), params=params, n_nodes=4
        )
        run = run_version_parallel(
            cfg, 4, params=params, collective=CollectiveConfig(mode=mode)
        )
        assert run.collective.sim.n_events > 0
        assert any(run.collective.chosen.values()) == (mode == "always")

    def test_cached_serve_replay(self, no_simop):
        from repro import serve

        tenants = tuple(
            serve.TenantConfig(name=f"t{i}", cache_quota_elements=256)
            for i in range(2)
        )
        jobs = tuple(
            serve.JobSpec(
                tenant=t.name, workload="trans", version="c-opt", n=8,
                n_nodes=2, arrival_s=float(k),
            )
            for k, t in enumerate(tenants * 2)
        )
        result = serve.serve_script(
            serve.ClusterProfile(
                n_compute_nodes=4, tenants=tenants,
                cache_budget_elements=1024,
            ),
            serve.WorkloadScript(seed=1, jobs=jobs),
        )
        assert all(j.state == "done" for j in result.jobs)
        assert result.cache.hits > 0 and result.n_events > 0
