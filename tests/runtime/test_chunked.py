import numpy as np
import pytest

from repro.runtime import (
    InterleavedChunkedStore,
    IOContext,
    MachineParams,
    OutOfCoreArray,
    ParallelFileSystem,
)
from repro.layout import BlockedLayout, col_major


def make_store(names=("A", "B"), shape=(8, 8), block=(4, 4), real=True, **kw):
    params = MachineParams(**kw)
    ctx = IOContext(params)
    pfs = ParallelFileSystem(params)
    return InterleavedChunkedStore(names, shape, block, pfs, real=real), ctx


class TestInterleavedChunkedStore:
    def test_validation(self):
        params = MachineParams()
        pfs = ParallelFileSystem(params)
        with pytest.raises(ValueError):
            InterleavedChunkedStore((), (8, 8), (4, 4), pfs)
        with pytest.raises(ValueError):
            InterleavedChunkedStore(("A",), (8, 8), (4,), pfs)
        with pytest.raises(ValueError):
            InterleavedChunkedStore(("A",), (8, 8), (0, 4), pfs)

    def test_unknown_array(self):
        store, _ = make_store()
        with pytest.raises(KeyError):
            store.slot_of("Z")

    def test_roundtrip(self):
        store, ctx = make_store()
        rng = np.random.default_rng(3)
        da, db = rng.random((8, 8)), rng.random((8, 8))
        store.load_ndarray("A", da)
        store.load_ndarray("B", db)
        np.testing.assert_array_equal(store.to_ndarray("A"), da)
        np.testing.assert_array_equal(store.to_ndarray("B"), db)

    def test_aligned_tile_is_one_run(self):
        store, ctx = make_store(names=("A",))
        out = store.read_tiles([("A", ((0, 3), (0, 3)))], ctx)
        assert ctx.stats.read_calls == 1
        assert out["A"].shape == (4, 4)

    def test_interleaving_coalesces_coaccessed_tiles(self):
        """Co-accessed aligned tiles of both arrays are adjacent in file:
        the combined read needs a single I/O call (the h-opt mechanism)."""
        store, ctx = make_store()
        store.read_tiles(
            [("A", ((0, 3), (0, 3))), ("B", ((0, 3), (0, 3)))], ctx
        )
        assert ctx.stats.read_calls == 1
        assert ctx.stats.elements_read == 32

    def test_separate_reads_cost_more(self):
        store, ctx = make_store()
        store.read_tiles([("A", ((0, 3), (0, 3)))], ctx)
        store.read_tiles([("B", ((0, 3), (0, 3)))], ctx)
        assert ctx.stats.read_calls == 2

    def test_unaligned_tile_whole_chunk_transfer(self):
        """Chunked I/O moves whole chunks: an unaligned 4x4 tile covers
        four 4x4 chunks — they are file-adjacent, so one 64-element call."""
        store, ctx = make_store(names=("A",))
        store.read_tiles([("A", ((2, 5), (2, 5)))], ctx)
        assert ctx.stats.read_calls == 1
        assert ctx.stats.elements_read == 64  # over-read, by design

    def test_write_tiles_roundtrip(self):
        store, ctx = make_store()
        a = np.full((4, 4), 1.0)
        b = np.full((4, 4), 2.0)
        store.write_tiles(
            [("A", ((4, 7), (4, 7)), a), ("B", ((4, 7), (4, 7)), b)], ctx
        )
        assert ctx.stats.write_calls == 1
        np.testing.assert_array_equal(store.to_ndarray("A")[4:, 4:], a)
        np.testing.assert_array_equal(store.to_ndarray("B")[4:, 4:], b)

    def test_max_request_still_splits(self):
        store, ctx = make_store(max_request_bytes=8 * 8)
        store.read_tiles(
            [("A", ((0, 3), (0, 3))), ("B", ((0, 3), (0, 3)))], ctx
        )
        # 32 contiguous elements at 8 per call = 4 calls
        assert ctx.stats.read_calls == 4

    def test_simulate_mode(self):
        store, ctx = make_store(real=False)
        out = store.read_tiles([("A", ((0, 3), (0, 3)))], ctx)
        assert out["A"] is None
        assert ctx.stats.read_calls == 1

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("region", [((3, 2), (0, 1)), ((5, 2), (0, 1))])
    def test_empty_region_moves_and_records_nothing(self, region, real):
        # lo and hi of an empty region used to be floor-divided apart,
        # charging the chunk between them
        store, _ = make_store(real=real)
        ctx = IOContext(MachineParams(), trace=True)
        assert store.chunk_ids("A", region).size == 0
        assert store.addresses("A", region).size == 0
        assert store.estimate_read("A", region, ctx.params) == (0, 0)
        out = store.read_tiles([("A", region)], ctx)
        store.write_tiles([("A", region, out["A"])], ctx)
        if real:
            assert out["A"].shape == (0, 2)
        else:
            assert out["A"] is None
        assert ctx.stats == IOContext(ctx.params).stats and ctx.trace == []

    @pytest.mark.parametrize(
        "region", [((0, 9), (0, 1)), ((-1, 2), (0, 1)), ((0, 1),)]
    )
    def test_escaping_region_rejected_before_anything_is_accounted(
        self, region
    ):
        # the same check, and the same words, as OutOfCoreArray
        store, ctx = make_store(real=False)
        plain = OutOfCoreArray.create(
            "A", (8, 8), col_major(2), ParallelFileSystem(ctx.params),
            real=False,
        )
        with pytest.raises(ValueError) as want:
            plain.runs(region)
        inside = ((0, 3), (0, 3))
        for call in (
            lambda: store.addresses("A", region),
            lambda: store.chunk_ids("A", region),
            lambda: store.estimate_read("A", region, ctx.params),
            lambda: store.read_tiles([("B", inside), ("A", region)], ctx),
            lambda: store.write_tiles(
                [("B", inside, None), ("A", region, None)], ctx
            ),
        ):
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(want.value)
        assert ctx.stats.calls == 0

    def test_versus_plain_chunked_array(self):
        """Interleaving beats two independent chunked arrays on co-access."""
        params = MachineParams()
        pfs = ParallelFileSystem(params)
        ctx_plain = IOContext(params)
        a = OutOfCoreArray.create("A", (8, 8), BlockedLayout((4, 4)), pfs)
        b = OutOfCoreArray.create("B", (8, 8), BlockedLayout((4, 4)), pfs)
        a.read_tile(((0, 3), (0, 3)), ctx_plain)
        b.read_tile(((0, 3), (0, 3)), ctx_plain)
        store, ctx_inter = make_store()
        store.read_tiles(
            [("A", ((0, 3), (0, 3))), ("B", ((0, 3), (0, 3)))], ctx_inter
        )
        assert ctx_inter.stats.read_calls < ctx_plain.stats.read_calls
