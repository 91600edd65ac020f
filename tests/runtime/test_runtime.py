import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import BlockedLayout, col_major, diagonal, row_major
from repro.runtime import (
    IOContext,
    MachineParams,
    MemoryBudgetExceeded,
    MemoryManager,
    OOCFile,
    OutOfCoreArray,
    ParallelFileSystem,
    region_size,
)
from repro.runtime.ooc_array import runs_of


def ctx_and_pfs(**kw):
    params = MachineParams(**kw)
    return IOContext(params), ParallelFileSystem(params)


class TestParams:
    def test_defaults_sane(self):
        p = MachineParams()
        assert p.max_request_elements == 512 * 1024
        assert p.stripe_elements == 8192

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineParams(n_io_nodes=0)
        with pytest.raises(ValueError):
            MachineParams(max_request_bytes=4)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf"), -1.0]
    )
    def test_net_latency_rejected_named(self, bad):
        with pytest.raises(ValueError, match="net_latency_s"):
            MachineParams(net_latency_s=bad)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf"), -1.0, 0.0]
    )
    def test_net_bandwidth_rejected_named(self, bad):
        with pytest.raises(ValueError, match="net_bandwidth_bps"):
            MachineParams(net_bandwidth_bps=bad)

    def test_net_edge_values_accepted(self):
        # zero latency is legal (an ideal interconnect); the names in
        # the error messages are what the tests above pin
        p = MachineParams(net_latency_s=0.0, net_bandwidth_bps=1.0)
        assert p.net_time(8) == pytest.approx(8.0)

    def test_call_time(self):
        p = MachineParams(io_latency_s=0.01, io_bandwidth_bps=1e6)
        assert p.call_time(1e6) == pytest.approx(1.01)

    def test_batch_time_is_the_recorders_formula(self):
        # the one batch formula: what record_runs charges for a batch is
        # batch_time of its (calls, elements), bit for bit
        p = MachineParams(io_latency_s=0.013, io_bandwidth_bps=3e6)
        assert p.batch_time(0, 0) == 0.0
        assert p.batch_time(3, 700) == (
            3 * p.io_latency_s + 700 * p.element_size / p.io_bandwidth_bps
        )
        ctx = IOContext(p)
        ctx.record_runs(0, np.array([0, 1000, 5000]), np.array([100, 250, 350]), False)
        assert ctx.stats.io_time_s == p.batch_time(3, 700)


class TestPFS:
    def test_allocation_stripe_aligned(self):
        params = MachineParams()
        pfs = ParallelFileSystem(params)
        b1 = pfs.allocate("a", 100)
        b2 = pfs.allocate("b", 100)
        assert b1 == 0
        assert b2 == params.stripe_elements

    def test_duplicate_rejected(self):
        _, pfs = ctx_and_pfs()
        pfs.allocate("a", 10)
        with pytest.raises(ValueError):
            pfs.allocate("a", 10)

    def test_io_node_round_robin(self):
        params = MachineParams(n_io_nodes=4)
        pfs = ParallelFileSystem(params)
        se = params.stripe_elements
        assert pfs.io_node_of(0) == 0
        assert pfs.io_node_of(se) == 1
        assert pfs.io_node_of(4 * se) == 0


class TestRunsOf:
    def test_empty(self):
        offs, lens = runs_of(np.array([], dtype=np.int64))
        assert offs.size == 0 and lens.size == 0

    def test_single_run(self):
        offs, lens = runs_of(np.array([5, 6, 7, 8]))
        assert list(offs) == [5] and list(lens) == [4]

    def test_multiple_runs(self):
        offs, lens = runs_of(np.array([1, 2, 10, 11, 12, 20]))
        assert list(offs) == [1, 10, 20]
        assert list(lens) == [2, 3, 1]

    def test_unsorted_input(self):
        offs, lens = runs_of(np.array([7, 5, 6]))
        assert list(offs) == [5] and list(lens) == [3]

    @given(st.sets(st.integers(0, 200), min_size=1, max_size=60))
    def test_runs_partition_addresses(self, addr_set):
        addrs = np.array(sorted(addr_set), dtype=np.int64)
        offs, lens = runs_of(addrs)
        covered = np.concatenate(
            [np.arange(o, o + l) for o, l in zip(offs, lens)]
        )
        assert set(covered) == addr_set
        assert int(lens.sum()) == len(addr_set)


class TestIOContext:
    def test_single_call_accounting(self):
        params = MachineParams(io_latency_s=1.0, io_bandwidth_bps=8.0, element_size=8)
        ctx = IOContext(params)
        ctx.record_call(0, 0, 1, is_write=False)
        assert ctx.stats.read_calls == 1
        assert ctx.stats.elements_read == 1
        assert ctx.stats.io_time_s == pytest.approx(1.0 + 1.0)

    def test_record_runs_splits_long_runs(self):
        params = MachineParams(max_request_bytes=8 * 8)  # 8 elements max
        ctx = IOContext(params)
        n = ctx.record_runs(0, np.array([0]), np.array([20]), False)
        assert n == 3  # 8 + 8 + 4
        assert ctx.stats.elements_read == 20

    def test_record_runs_matches_loop_of_calls(self):
        params = MachineParams(n_io_nodes=4, stripe_bytes=64, io_latency_s=0.5)
        a = IOContext(params)
        b = IOContext(params)
        offsets = np.array([0, 13, 40])
        lengths = np.array([5, 3, 17])
        a.record_runs(100, offsets, lengths, is_write=True)
        for o, l in zip(offsets, lengths):
            b.record_call(100, int(o), int(l), is_write=True)
        assert a.stats.write_calls == b.stats.write_calls
        assert a.stats.io_time_s == pytest.approx(b.stats.io_time_s)
        np.testing.assert_allclose(a.io_node_load, b.io_node_load)

    def test_compute_accounting(self):
        ctx = IOContext(MachineParams(compute_per_element_s=1e-6))
        ctx.record_compute(1000, 2)
        assert ctx.stats.compute_time_s == pytest.approx(2e-3)

    def test_stats_merge_and_str(self):
        ctx = IOContext(MachineParams())
        ctx.record_call(0, 0, 4, False)
        merged = ctx.stats.merge(ctx.stats)
        assert merged.read_calls == 2
        assert "calls=" in str(merged)

    def test_reset(self):
        ctx = IOContext(MachineParams())
        ctx.record_call(0, 0, 4, False)
        ctx.reset()
        assert ctx.stats.calls == 0
        assert ctx.io_node_load.sum() == 0


class TestOOCFile:
    def test_simulate_mode_has_no_buffer(self):
        _, pfs = ctx_and_pfs()
        f = OOCFile("x", 100, pfs, real=False)
        assert not f.real
        with pytest.raises(RuntimeError):
            f.gather(np.array([0]))

    def test_real_roundtrip(self):
        _, pfs = ctx_and_pfs()
        f = OOCFile("x", 10, pfs)
        f.scatter(np.array([2, 3]), np.array([1.5, 2.5]))
        np.testing.assert_array_equal(f.gather(np.array([3, 2])), [2.5, 1.5])


class TestOutOfCoreArray:
    def make(self, layout, shape=(8, 8), real=True, **params):
        ctx, pfs = ctx_and_pfs(**params)
        arr = OutOfCoreArray.create("A", shape, layout, pfs, real=real)
        return arr, ctx

    def test_roundtrip_row_major(self):
        arr, ctx = self.make(row_major(2))
        data = np.arange(64, dtype=np.float64).reshape(8, 8)
        arr.load_ndarray(data)
        tile = arr.read_tile(((2, 4), (1, 3)), ctx)
        np.testing.assert_array_equal(tile, data[2:5, 1:4])

    def test_roundtrip_col_major(self):
        arr, ctx = self.make(col_major(2))
        data = np.random.default_rng(0).random((8, 8))
        arr.load_ndarray(data)
        np.testing.assert_array_equal(arr.to_ndarray(), data)

    def test_roundtrip_diagonal(self):
        arr, ctx = self.make(diagonal())
        data = np.random.default_rng(1).random((8, 8))
        arr.load_ndarray(data)
        tile = arr.read_tile(((0, 7), (3, 5)), ctx)
        np.testing.assert_array_equal(tile, data[:, 3:6])

    def test_write_tile(self):
        arr, ctx = self.make(row_major(2))
        patch = np.full((2, 2), 7.0)
        arr.write_tile(((1, 2), (1, 2)), patch, ctx)
        out = arr.to_ndarray()
        np.testing.assert_array_equal(out[1:3, 1:3], patch)
        assert out.sum() == pytest.approx(4 * 7.0)

    def test_region_validation(self):
        arr, ctx = self.make(row_major(2))
        with pytest.raises(ValueError):
            arr.read_tile(((0, 8), (0, 0)), ctx)
        with pytest.raises(ValueError):
            arr.read_tile(((0, 1),), ctx)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("region", [((3, 2), (0, 1)), ((5, 2), (0, 1))])
    def test_empty_region_moves_and_records_nothing(self, region, real):
        # hi < lo by one or by many: no runs, no calls, an empty tile
        params = MachineParams()
        arr = OutOfCoreArray.create(
            "A", (8, 8), col_major(2), ParallelFileSystem(params), real=real
        )
        ctx = IOContext(params, trace=True)
        assert arr.addresses(region).size == 0
        assert [a.size for a in arr.runs(region)] == [0, 0]
        assert arr.count_tile_io(region, ctx, is_write=False) == 0
        tile = arr.read_tile(region, ctx)
        arr.write_tile(region, tile, ctx)
        if real:
            assert tile.shape == (0, 2)
        else:
            assert tile is None
        assert ctx.stats == IOContext(params).stats and ctx.trace == []
        assert not ctx.io_node_load.any()

    def test_runs_validate_the_region_like_addresses(self):
        arr, ctx = self.make(row_major(2), real=False)
        for region in [((0, 8), (0, 0)), ((-1, 2), (0, 0)), ((0, 1),)]:
            with pytest.raises(ValueError) as by_runs:
                arr.runs(region)
            with pytest.raises(ValueError) as by_addresses:
                arr.addresses(region)
            assert str(by_runs.value) == str(by_addresses.value)
            with pytest.raises(ValueError):
                arr.read_tile(region, ctx)
        assert ctx.stats.calls == 0

    def test_figure3a_call_count(self):
        """Paper Figure 3(a): a 4x4 tile of a column-major array needs 4
        I/O calls (one per column)."""
        arr, ctx = self.make(
            col_major(2),
            max_request_bytes=8 * 8,  # at most 8 elements per call
            io_latency_s=1.0,
        )
        n = arr.count_tile_io(((0, 3), (0, 3)), ctx, is_write=False)
        assert n == 4

    def test_figure3b_call_count(self):
        """Paper Figure 3(b): a 4x16... for the 8x8 array, a 4x8 tile of a
        row-major array = 4 rows of 8 = 4 calls; a 2x8 "all columns" tile
        of the col-major array with 8-element max = 2 calls per... the
        canonical case: full-width tile of the *matching* layout."""
        arr, ctx = self.make(
            col_major(2),
            max_request_bytes=8 * 8,
        )
        # 8 rows x 2 cols of a col-major array: two full columns = 2 runs
        n = arr.count_tile_io(((0, 7), (0, 1)), ctx, is_write=False)
        assert n == 2

    def test_simulate_mode_counts_without_data(self):
        arr, ctx = self.make(row_major(2), real=False)
        out = arr.read_tile(((0, 3), (0, 7)), ctx)
        assert out is None
        assert ctx.stats.read_calls == 1  # 4 rows... row-major full rows 0..3 are contiguous
        assert ctx.stats.elements_read == 32

    def test_file_too_small_rejected(self):
        params = MachineParams()
        pfs = ParallelFileSystem(params)
        f = OOCFile("small", 10, pfs)
        with pytest.raises(ValueError):
            OutOfCoreArray("A", (8, 8), row_major(2), f)

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(["row", "col", "diag"]),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
    )
    def test_read_write_roundtrip_property(self, lay_name, lo, hi):
        lay = {"row": row_major(2), "col": col_major(2), "diag": diagonal()}[lay_name]
        region = tuple((min(a, b), max(a, b)) for a, b in zip(lo, hi))
        arr, ctx = self.make(lay, shape=(6, 6))
        rng = np.random.default_rng(42)
        base = rng.random((6, 6))
        arr.load_ndarray(base)
        sizes = [h - l + 1 for l, h in region]
        patch = rng.random(sizes)
        arr.write_tile(region, patch, ctx)
        got = arr.read_tile(region, ctx)
        np.testing.assert_array_equal(got, patch)
        # outside the region the original data is intact
        full = arr.to_ndarray()
        mask = np.ones((6, 6), dtype=bool)
        mask[region[0][0] : region[0][1] + 1, region[1][0] : region[1][1] + 1] = False
        np.testing.assert_array_equal(full[mask], base[mask])


class TestRegionSize:
    def test_simple(self):
        assert region_size(((0, 3), (1, 2))) == 8

    def test_empty(self):
        assert region_size(((2, 1),)) == 0


class TestMemoryManager:
    def test_budget_enforced(self):
        mm = MemoryManager(100)
        mm.allocate(60)
        with pytest.raises(MemoryBudgetExceeded):
            mm.allocate(50)
        mm.free(60)
        mm.allocate(100)
        assert mm.peak == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryManager(0)
        mm = MemoryManager(10)
        with pytest.raises(ValueError):
            mm.free(1)
        with pytest.raises(ValueError):
            mm.allocate(-1)

    def test_reset(self):
        mm = MemoryManager(10)
        mm.allocate(5)
        mm.reset()
        assert mm.in_use == 0 and mm.peak == 0
