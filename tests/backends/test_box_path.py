"""A flat file moves a linear-layout tile as a box of the array's strided
view.  Against the address path on the same file: same data, and on the
mmap backend the same measured operations and bytes.  Runs' measured
counters are pinned as the address path recorded them; a closed file
refuses every data access by name."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import BackendError, MmapBackend, resolve_backend
from repro.engine import OOCExecutor
from repro.experiments.harness import _scaled_params
from repro.layout import BlockedLayout, layout_from_direction, row_major
from repro.optimizer import build_version
from repro.runtime import OutOfCoreArray, ParallelFileSystem
from repro.runtime.ooc_array import region_shape
from repro.workloads import build_workload

from ..layout.test_box_view import box_cases

PARAMS = _scaled_params(16)


def _array(layout, shape, backend):
    return OutOfCoreArray.create(
        "A", shape, layout, ParallelFileSystem(PARAMS), backend=backend
    )


@settings(max_examples=150, deadline=None)
@given(box_cases(), st.sampled_from(["memory", "mmap"]))
def test_box_moves_equal_address_moves(case, kind):
    layout, shape, region = case
    backend = resolve_backend(kind)
    try:
        arr = _array(layout, shape, backend)
        values = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        arr.load_ndarray(values)
        f = arr.file
        addresses = arr.addresses(region)
        before = backend.metrics.to_dict()
        by_address = f.gather(addresses)
        after_gather = backend.metrics.to_dict()
        got = arr.load_tile(region)
        after_box = backend.metrics.to_dict()
        np.testing.assert_array_equal(
            got, by_address.reshape(region_shape(region))
        )
        assert got.flags.c_contiguous
        for key in ("get_ops", "bytes_read"):
            assert (after_box[key] - after_gather[key]
                    == after_gather[key] - before[key]), key
        arr.store_tile(region, -got)
        moved = backend.metrics.to_dict()
        f.scatter(addresses, by_address)  # undo, by address
        undone = backend.metrics.to_dict()
        for key in ("put_ops", "bytes_written"):
            assert (moved[key] - after_box[key]
                    == undone[key] - moved[key]), key
        np.testing.assert_array_equal(
            f.gather(addresses), by_address
        )
        np.testing.assert_array_equal(arr.to_ndarray(), values)
    finally:
        backend.close()


#: (get_ops, put_ops, bytes_read, bytes_written) of whole mmap runs at
#: n = 16, as recorded when every tile moved by its addresses
MMAP_RUNS = {
    ("adi", "col"): (1780, 491, 85000, 43392),
    ("adi", "c-opt"): (290, 41, 85000, 43392),
    ("trans", "c-opt"): (24, 14, 12288, 10240),
    ("syr2k", "d-opt"): (142, 105, 48992, 12128),
    ("mxm", "row"): (1824, 867, 61440, 36864),
}


@pytest.mark.parametrize("code,version", sorted(MMAP_RUNS))
def test_mmap_run_metrics_are_pinned(code, version):
    cfg = build_version(version, build_workload(code, 16))
    with OOCExecutor(
        cfg.program, cfg.layouts, tiling=cfg.tiling,
        storage_spec=cfg.storage_spec, backend=MmapBackend(), params=PARAMS,
    ) as ex:
        m = ex.run().backend_metrics
    assert (
        m.get_ops, m.put_ops, m.bytes_read, m.bytes_written
    ) == MMAP_RUNS[code, version]


DATA_KINDS = ["memory", "mmap", "chunked", "object"]


@pytest.mark.parametrize("kind", DATA_KINDS)
def test_data_access_after_close_is_a_named_error(kind):
    backend = resolve_backend(kind)
    f = backend.open("A", 12)
    amap = row_major(2).address_map((3, 4))
    region = ((0, 1), (1, 2))
    addresses = np.array([0, 5], dtype=np.int64)
    f.scatter(addresses, np.array([1.0, 2.0]))
    backend.close()
    closed = pytest.raises(BackendError, match="file A is closed")
    with closed:
        f.gather(addresses)
    with closed:
        f.scatter(addresses, np.array([1.0, 2.0]))
    with closed:
        f.view(amap, 0)
    with closed:
        f.load_box(amap, 0, region)
    with closed:
        f.store_box(amap, 0, region, np.zeros(4))


@pytest.mark.parametrize("kind", DATA_KINDS)
@pytest.mark.parametrize("layout", [
    row_major(2), layout_from_direction((1, 1)), BlockedLayout((2, 2)),
], ids=["row", "skewed", "blocked"])
def test_a_closed_array_is_a_named_error(kind, layout):
    backend = resolve_backend(kind)
    arr = _array(layout, (3, 4), backend)
    arr.load_ndarray(np.ones((3, 4)))
    backend.close()
    with pytest.raises(BackendError, match="file A is closed"):
        arr.to_ndarray()
    with pytest.raises(BackendError, match="file A is closed"):
        arr.store_tile(((0, 0), (0, 0)), np.zeros((1, 1)))


def test_close_unmaps_the_file():
    backend = MmapBackend()
    arr = _array(row_major(2), (3, 4), backend)
    arr.load_ndarray(np.ones((3, 4)))
    tile = arr.load_tile(((0, 1), (0, 1)))
    f = arr.file._bfile
    assert f._views
    mapped = weakref.ref(f._mm)
    backend.close()
    gc.collect()
    assert f.flat is None and not f._views
    assert mapped() is None  # no view or tile keeps the memmap alive
    np.testing.assert_array_equal(tile, np.ones((2, 2)))
