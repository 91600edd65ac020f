import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import (
    InterleavedChunkedStore,
    IOContext,
    MachineParams,
    OutOfCoreArray,
    ParallelFileSystem,
)
from repro.layout import BlockedLayout, col_major
from repro.runtime.ooc_array import runs_of


def make_store(names=("A", "B"), shape=(8, 8), block=(4, 4), real=True, **kw):
    params = MachineParams(**kw)
    ctx = IOContext(params)
    pfs = ParallelFileSystem(params)
    backend = "memory" if real else "simulate"
    return InterleavedChunkedStore(
        names, shape, block, pfs, backend=backend
    ), ctx


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


# -- a block of groups in one pass == the per-request, per-group loops -------


def chunk_ids_reference(store, name, region):
    """The parent's chunk ids of one region: a meshgrid of its chunk box
    (kept here as the reference the one-pass derivation must equal)."""
    if any(hi < lo for lo, hi in region):
        return np.zeros(0, dtype=np.int64)
    lo = np.array([l for l, _ in region]) + store._pad_np
    hi = np.array([h for _, h in region]) + store._pad_np
    ranges = [
        np.arange(a, b + 1)
        for a, b in zip(lo // store._block_np, hi // store._block_np)
    ]
    grid = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1)
    return (
        grid.reshape(-1, len(store.shape)) @ store._grid_strides
    ) * store._n_arrays + store.slot_of(name)


def chunk_runs_reference(store, requests):
    """The parent's combined transfer of one group: unique chunk ids,
    cut where they stop being adjacent."""
    ids = [chunk_ids_reference(store, name, region) for name, region in requests]
    offsets, lengths = runs_of(np.unique(np.concatenate(ids)))
    return offsets * store._block_slots, lengths * store._block_slots


regions_of = lambda shape: st.tuples(*[  # noqa: E731
    st.tuples(st.integers(0, s - 1), st.integers(-1, s - 1)).map(
        lambda b: (b[0], max(b[1], b[0] - 1))  # hi = lo - 1: empty
    )
    for s in shape
])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_block_of_groups_equals_the_loop_run_for_run(data):
    m = data.draw(st.integers(1, 3))
    shape = data.draw(st.tuples(*[st.integers(1, 9)] * m))
    block = data.draw(st.tuples(*[st.integers(1, 4)] * m))
    origin = data.draw(st.tuples(*[st.integers(0, 3)] * m))
    names = ("A", "B", "C")[: data.draw(st.integers(1, 3))]
    pfs = ParallelFileSystem(MachineParams())
    pfs.advance(data.draw(st.integers(0, 99)))
    store = InterleavedChunkedStore(
        names, shape, block, pfs, backend="simulate", origin=origin
    )
    requests = st.tuples(st.sampled_from(names), regions_of(shape))
    groups = data.draw(st.lists(st.lists(requests, min_size=1, max_size=3),
                                max_size=5))
    answers = store.transfer_runs(groups)
    assert len(answers) == len(groups)
    for group, ((base, offsets, lengths),) in zip(groups, answers):
        want = chunk_runs_reference(store, group)
        assert base == store.file.base_elem
        assert offsets.dtype == lengths.dtype == np.int64
        assert (offsets.tolist(), lengths.tolist()) == (
            want[0].tolist(), want[1].tolist()
        )
        one = store.chunk_runs(group)
        assert (one[0].tolist(), one[1].tolist()) == (
            offsets.tolist(), lengths.tolist()
        )
        for name, region in group:
            assert store.chunk_ids(name, region).tolist() == (
                chunk_ids_reference(store, name, region).tolist()
            )
