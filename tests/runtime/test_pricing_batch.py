"""Pricing is one kernel over *segments*, batched over the static walk.

A segment is one transfer: a file base, a direction, its runs.  Until
this module's subject landed, every segment went through its own
``record_runs`` → ``plan_runs`` → ``io_node_loads`` round trip, the
request-cap split looped over runs and the stripe spread looped over
stripes with one ``np.add.at`` per turn.  That mechanism is kept here as
the reference model (``ref_*``, :class:`RefContext`) and is the oracle:

- any list of segments recorded as one batch leaves the counters, the
  seconds, the per-I/O-node loads and the call trace the per-segment
  loops leave, bit for bit — floats are compared with ``==``;
- a simulate-mode walk priced whole (``OOCExecutor``'s static path)
  equals the same walk priced tile by tile, for every workload × version
  of ``tests/engine/walk_snapshot.json``, a triangular nest with clipped
  boundary tiles and a chunk-interleaved (h-opt) program;
- the runs a walk's tiles get by translation (``AddressMap.runs_many``)
  are the runs each region gets on its own (``AddressMap.runs``).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import OOCExecutor
from repro.engine import executor as executor_mod
from repro.experiments.harness import _scaled_params
from repro.obs import profile as prof
from repro.optimizer.strategies import build_version
from repro.runtime import IOContext, IOStats, MachineParams
from repro.runtime.stats import CallTable, io_node_loads, plan_runs

from ..engine.test_walk_snapshot import N, PARAMS, WANT, _program, _rank_view
from ..layout.strategies import layouts, map_cases

# -- the reference: one segment at a time, looped split, looped stripes ----


def ref_sieve(offsets, lengths, max_gap_elems):
    if offsets.size <= 1:
        return offsets, lengths
    order = np.argsort(offsets, kind="stable")
    offsets, lengths = offsets[order], lengths[order]
    ends = offsets + lengths
    breaks = np.flatnonzero(offsets[1:] - ends[:-1] > max_gap_elems)
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks, [offsets.size - 1]))
    return offsets[starts], ends[stops] - offsets[starts]


def ref_plan_runs(params, offsets, lengths):
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if offsets.size == 0:
        return offsets, lengths
    maxe = params.max_request_elements
    if params.sieve_gap_bytes and offsets.size > 1:
        offsets, lengths = ref_sieve(
            offsets, lengths, params.sieve_gap_bytes // params.element_size
        )
        if params.sieve_buffer_bytes:
            maxe = min(maxe, params.sieve_buffer_bytes // params.element_size)
    if (lengths > maxe).any():
        pieces_off, pieces_len = [], []
        for off, ln, cnt in zip(offsets, lengths, -(-lengths // maxe)):
            pieces_off.append(off + maxe * np.arange(cnt, dtype=np.int64))
            plen = np.full(cnt, maxe, dtype=np.int64)
            plen[-1] = ln - maxe * (cnt - 1)
            pieces_len.append(plen)
        offsets, lengths = np.concatenate(pieces_off), np.concatenate(pieces_len)
    return offsets, lengths


def ref_io_node_loads(params, offsets, lengths, load):
    if offsets.size == 0:
        return load
    se = params.stripe_elements
    start, end = offsets, offsets + lengths
    first, last = start // se, (end - 1) // se
    np.add.at(load, first % params.n_io_nodes, params.io_latency_s)
    per_el = params.element_size / params.io_bandwidth_bps
    for k in range(int((last - first).max()) + 1):
        stripe = first + k
        mask = stripe <= last
        s0 = np.maximum(start[mask], stripe[mask] * se)
        s1 = np.minimum(end[mask], (stripe[mask] + 1) * se)
        np.add.at(load, stripe[mask] % params.n_io_nodes, (s1 - s0) * per_el)
    return load


class RefContext:
    """The per-segment recorder: ``+=`` per counter, per segment."""

    def __init__(self, params):
        self.params = params
        self.stats = IOStats()
        self.io_node_load = np.zeros(params.n_io_nodes)
        self.trace = []

    def record_runs(self, base, offsets, lengths, is_write):
        p = self.params
        offsets, lengths = ref_plan_runs(p, offsets, lengths)
        if offsets.size == 0:
            return 0
        n_calls, n_elems = int(offsets.size), int(lengths.sum())
        if is_write:
            self.stats.write_calls += n_calls
            self.stats.elements_written += n_elems
        else:
            self.stats.read_calls += n_calls
            self.stats.elements_read += n_elems
        self.stats.io_time_s += p.batch_time(n_calls, n_elems)
        self.trace += [
            (base, off, ln, is_write)
            for off, ln in zip(offsets.tolist(), lengths.tolist())
        ]
        ref_io_node_loads(p, base + offsets, lengths, self.io_node_load)
        return n_calls


# -- segment lists ----------------------------------------------------------


@st.composite
def machines(draw):
    """Small machines: requests of a few elements (runs above the cap),
    stripes of a few elements (runs over three and more of them), sieve
    off, on, and on with a buffer tighter than the request cap."""
    return MachineParams(
        n_io_nodes=draw(st.integers(1, 5)),
        stripe_bytes=8 * draw(st.integers(1, 6)),
        max_request_bytes=8 * draw(st.integers(1, 40)),
        sieve_gap_bytes=draw(st.sampled_from([0, 0, 7, 8, 24, 80])),
        sieve_buffer_bytes=8 * draw(st.sampled_from([0, 4, 16, 64])),
        io_latency_s=0.0137,
        io_bandwidth_bps=3.1e6,
    )


@st.composite
def _loose_runs(draw):
    """Disjoint runs in any order (what a cache remainder looks like)."""
    cuts = draw(st.lists(st.integers(0, 300), max_size=12, unique=True))
    cuts = sorted(cuts)[: len(cuts) // 2 * 2]
    runs = [(a, b - a) for a, b in zip(cuts[0::2], cuts[1::2])]
    runs = draw(st.permutations(runs))
    return (
        np.array([o for o, _ in runs], dtype=np.int64),
        np.array([n for _, n in runs], dtype=np.int64),
    )


@st.composite
def _tile_runs(draw):
    """A region's runs under a layout of every kind the repo ships."""
    layout, shape, region = draw(map_cases())
    return layout.address_map(shape).runs(region)


def segments():
    """``[(file base, is_write, (offsets, lengths))]`` — mixed bases and
    directions, zero-run segments included."""
    return st.lists(
        st.tuples(
            st.integers(0, 500), st.booleans(),
            st.one_of(_loose_runs(), _tile_runs()),
        ),
        max_size=8,
    )


def _record_batch(ctx, segs):
    return ctx.record_runs(
        [base for base, _, _ in segs],
        np.concatenate([runs[0] for _, _, runs in segs]),
        np.concatenate([runs[1] for _, _, runs in segs]),
        [w for _, w, _ in segs],
        [runs[0].size for _, _, runs in segs],
    )


class TestSegmentBatch:
    @settings(max_examples=300, deadline=None)
    @given(machines(), segments(), segments())
    def test_a_batch_is_its_segments_recorded_in_turn(self, params, segs, more):
        ref = RefContext(params)
        want = [ref.record_runs(b, *runs, w) for b, w, runs in segs + more]

        one_by_one = IOContext(params, trace=True)
        got = [one_by_one.record_runs(b, *runs, w) for b, w, runs in segs + more]
        assert got == want

        # two batches, the second accumulating onto the first
        batched = IOContext(params, trace=True)
        n = sum(_record_batch(batched, part) for part in (segs, more) if part)
        assert n == sum(want)

        for ctx in (one_by_one, batched):
            assert ctx.stats == ref.stats
            assert ctx.io_node_load.tolist() == ref.io_node_load.tolist()
            assert ctx.trace == ref.trace

    @settings(max_examples=200, deadline=None)
    @given(machines(), segments())
    def test_plan_runs_plans_each_segment_on_its_own(self, params, segs):
        if not segs:
            return
        offsets, lengths, counts = plan_runs(
            params,
            np.concatenate([runs[0] for _, _, runs in segs]),
            np.concatenate([runs[1] for _, _, runs in segs]),
            [runs[0].size for _, _, runs in segs],
        )
        want = [ref_plan_runs(params, *runs) for _, _, runs in segs]
        assert counts.tolist() == [o.size for o, _ in want]
        assert offsets.tolist() == np.concatenate([o for o, _ in want]).tolist()
        assert lengths.tolist() == np.concatenate([n for _, n in want]).tolist()
        # and one segment is the two-value form every other caller uses
        for (_, _, runs), (w_off, w_len) in zip(segs, want):
            off, ln = plan_runs(params, *runs)
            assert off.tolist() == w_off.tolist()
            assert ln.tolist() == w_len.tolist()

    @settings(max_examples=200, deadline=None)
    @given(machines(), _loose_runs(), st.integers(0, 50))
    def test_one_segment_of_calls_loads_like_the_stripe_loop(
        self, params, runs, base
    ):
        """What the re-pricers do: a whole trace as one segment."""
        offsets, lengths = ref_plan_runs(params, *runs)
        want = ref_io_node_loads(
            params, base + offsets, lengths, np.full(params.n_io_nodes, 0.25)
        )
        got = io_node_loads(
            params, base + offsets, lengths, np.full(params.n_io_nodes, 0.25)
        )
        assert got.tolist() == want.tolist()

    def test_a_call_over_many_stripes_and_a_split_run(self):
        """The two loops that are gone, on a case small enough to read:
        8-element stripes on 3 nodes, requests of at most 20 elements."""
        p = MachineParams(
            n_io_nodes=3, stripe_bytes=64, max_request_bytes=160,
            io_latency_s=1.0, io_bandwidth_bps=8.0,
        )
        ctx = IOContext(p, trace=True)
        assert ctx.record_runs(4, [0, 100], [50, 3], False) == 4
        assert ctx.trace == [
            (4, 0, 20, False), (4, 20, 20, False), (4, 40, 10, False),
            (4, 100, 3, False),
        ]
        # elements 4..53 and 104..106; stripe s lives on node s % 3, and
        # an element costs one second: stripes 0..6 take 4+8+8+8+8+8+6
        # and stripe 13 takes 3; latencies at stripes 0, 3, 5 and 13
        assert ctx.io_node_load.tolist() == [
            (1.0 + 1.0) + (4 + 8 + 6.0),
            1.0 + (8 + 8 + 3.0),
            1.0 + (8 + 8.0),
        ]
        assert ctx.stats.io_time_s == 4 * 1.0 + 53.0


# -- translated runs ---------------------------------------------------------


@st.composite
def tilings(draw):
    """A layout, a shape and every tile of a block grid over it, boundary
    tiles clipped, the grid possibly anchored off the origin."""
    rank = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 9)) for _ in range(rank))
    block = [draw(st.integers(1, 4)) for _ in range(rank)]
    start = [draw(st.integers(0, min(2, s - 1))) for s in shape]
    per_dim = [
        [(lo, min(lo + b - 1, s - 1)) for lo in range(a, s, b)]
        for a, b, s in zip(start, block, shape)
    ]
    grid = np.stack(
        np.meshgrid(*[np.arange(len(d)) for d in per_dim], indexing="ij"), -1
    ).reshape(-1, rank)
    regions = [
        tuple(per_dim[d][i] for d, i in enumerate(cell)) for cell in grid.tolist()
    ]
    return draw(layouts(rank)), shape, regions


class TestTranslatedRuns:
    @settings(max_examples=300, deadline=None)
    @given(tilings())
    def test_runs_many_is_runs_per_region(self, case):
        layout, shape, regions = case
        amap = layout.address_map(shape)
        offsets, lengths, counts = amap.runs_many(regions)
        want = [amap.runs(region) for region in regions]
        assert offsets.dtype == lengths.dtype == np.int64
        assert counts.tolist() == [o.size for o, _ in want]
        assert offsets.tolist() == np.concatenate([o for o, _ in want]).tolist()
        assert lengths.tolist() == np.concatenate([n for _, n in want]).tolist()

    def test_interior_tiles_are_derived_once(self, monkeypatch):
        from repro.layout import BlockedLayout, col_major
        from repro.layout.layouts import AddressMap

        derived = []
        runs = AddressMap.runs
        monkeypatch.setattr(
            AddressMap, "runs",
            lambda self, region: derived.append(region) or runs(self, region),
        )
        tiles = [
            ((i, min(i + 3, 9)), (j, min(j + 3, 9)))
            for i in range(0, 10, 4) for j in range(0, 10, 4)
        ]
        col_major(2).address_map((10, 10)).runs_many(tiles)
        assert len(derived) == 4  # interior, two clipped edges, the corner
        del derived[:]
        # blocks of 4 × 4 under tiles of 4 × 4: whole blocks, same classes
        BlockedLayout((4, 4)).address_map((10, 10)).runs_many(tiles)
        assert len(derived) == 4
        del derived[:]
        # blocks of 3 × 3: a tile's place in its block is part of its class
        BlockedLayout((3, 3)).address_map((10, 10)).runs_many(tiles)
        assert len(derived) == 9

    def test_an_address_map_is_built_once_per_layout_value_and_shape(self):
        from repro.layout import BlockedLayout, LinearLayout, col_major
        from repro.linalg import IMat

        a = col_major(2).address_map((6, 5))
        assert LinearLayout(IMat([[0, 1], [1, 0]])).address_map([6, 5]) is a
        assert col_major(2).address_map((5, 6)) is not a
        b = BlockedLayout((2, 2)).address_map((6, 5))
        assert BlockedLayout((2, 2)).address_map((6, 5)) is b
        with pytest.raises(ValueError, match="shape rank 3 != layout rank 2"):
            col_major(2).address_map((6, 5, 4))


# -- a walk priced whole == the walk priced tile by tile ---------------------

SNAPSHOT_RUNS = sorted(
    k for k in WANT if k.split("/")[0] not in ("solve_joint", "h-opt-spec")
)


def _walk(cfg, params, node_slice, static):
    ex = OOCExecutor(
        cfg.program, cfg.layouts, params=params, tiling=cfg.tiling,
        storage_spec=cfg.storage_spec, trace=True, node_slice=node_slice,
        backend="simulate",
    )
    assert ex._static_io  # simulate mode, no cache, no injector
    ex._static_io = static
    before = prof.WORK.snapshot()
    result = ex.run()
    return _rank_view(result), prof.WORK.delta(before, prof.WORK.snapshot())


def _assert_whole_is_tile_by_tile(workload, version, n, params, n_nodes):
    cfg = build_version(
        version, _program(workload, n), params=params, n_nodes=n_nodes
    )
    for rank in range(n_nodes):
        whole, w_work = _walk(cfg, params, (rank, n_nodes), True)
        tiled, t_work = _walk(cfg, params, (rank, n_nodes), False)
        assert whole == tiled
        # the same runs are priced, in fewer kernel calls
        assert w_work["priced_runs"] == t_work["priced_runs"]
        assert w_work["plan_runs_calls"] <= t_work["plan_runs_calls"]
        assert w_work["python_loop_iters"] == t_work["python_loop_iters"]
        assert w_work["addresses_enumerated"] == 0


class TestWholeWalk:
    @pytest.mark.parametrize("key", SNAPSHOT_RUNS)
    def test_every_snapshot_run(self, key):
        workload, version = key.split("/")
        _assert_whole_is_tile_by_tile(workload, version, N, PARAMS, 4)

    @pytest.mark.parametrize(
        "workload, version",
        [("syr2k", "c-opt"), ("syr2k", "col"), ("mxm", "h-opt"),
         ("adi", "h-opt")],
    )
    def test_clipped_triangular_and_chunked_walks(self, workload, version):
        """n = 23 divides by no block: boundary tiles are clipped, the
        triangle drops windows, and h-opt's stores are chunk-interleaved."""
        params = replace(_scaled_params(23), n_io_nodes=3)
        _assert_whole_is_tile_by_tile(workload, version, 23, params, 2)

    @pytest.mark.parametrize("batch_runs", [1, 7, 10**9])
    def test_the_batch_size_is_not_in_the_result(self, monkeypatch, batch_runs):
        cfg = build_version("col", _program("adi", 23), params=PARAMS)
        want, work = _walk(cfg, PARAMS, None, False)
        monkeypatch.setattr(executor_mod, "_BATCH_RUNS", batch_runs)
        got, batched = _walk(cfg, PARAMS, None, True)
        assert got == want
        assert batched["priced_runs"] == work["priced_runs"]
        if batch_runs == 10**9:  # one batch per nest pass
            assert batched["plan_runs_calls"] == len(cfg.program.nests)

    def test_a_traced_batch_is_one_call_table(self):
        cfg = build_version("col", _program("mxm", N), params=PARAMS)
        ex = OOCExecutor(
            cfg.program, cfg.layouts, params=PARAMS, trace=True, backend="simulate"
        )
        for nr in ex.run().nest_runs:
            assert isinstance(nr.trace, CallTable)
            assert len(nr.trace) == nr.stats.calls // nr.trace_weight
