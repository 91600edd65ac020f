"""Backend protocol basics: dtype validation, resolution, metrics."""

import numpy as np
import pytest

from repro.backends import (
    BackendError,
    BackendMetrics,
    ChunkedBackend,
    DEFAULT_DTYPE,
    MemoryBackend,
    MmapBackend,
    SimulateBackend,
    SimulatedObjectStore,
    resolve_backend,
    validate_dtype,
)
from repro.backends.base import UnitFile


class TestValidateDtype:
    def test_default_is_float64(self):
        assert validate_dtype(None) == np.dtype(np.float64)
        assert DEFAULT_DTYPE == np.dtype(np.float64)

    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int32, np.int64, np.uint16, "f4"]
    )
    def test_numeric_dtypes_pass(self, dtype):
        dt = validate_dtype(dtype)
        assert dt.kind in "fiu"

    @pytest.mark.parametrize("dtype", [np.complex128, bool, object, "U8", "S4"])
    def test_non_numeric_dtypes_rejected(self, dtype):
        with pytest.raises(BackendError):
            validate_dtype(dtype)

    def test_garbage_rejected(self):
        with pytest.raises(BackendError):
            validate_dtype("not a dtype")


class TestResolveBackend:
    def test_none_real_true_is_memory(self):
        assert isinstance(resolve_backend(None, True), MemoryBackend)
        assert isinstance(resolve_backend(None, None), MemoryBackend)

    def test_none_real_false_is_simulate(self):
        assert isinstance(resolve_backend(None, False), SimulateBackend)

    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("memory", MemoryBackend),
            ("simulate", SimulateBackend),
            ("mmap", MmapBackend),
            ("chunked", ChunkedBackend),
            ("object", SimulatedObjectStore),
        ],
    )
    def test_kind_strings(self, kind, cls):
        b = resolve_backend(kind)
        assert isinstance(b, cls)
        assert b.kind == kind
        b.close()

    def test_instance_passthrough(self):
        b = MemoryBackend()
        assert resolve_backend(b) is b

    def test_unknown_kind(self):
        with pytest.raises(BackendError, match="unknown backend kind"):
            resolve_backend("tape")

    def test_not_a_backend(self):
        with pytest.raises(BackendError, match="StorageBackend"):
            resolve_backend(42)

    def test_contradicting_real_flag(self):
        with pytest.raises(BackendError, match="contradicts"):
            resolve_backend(MemoryBackend(), real=False)
        with pytest.raises(BackendError, match="contradicts"):
            resolve_backend("simulate", real=True)

    def test_matching_real_flag_ok(self):
        assert resolve_backend("memory", real=True).kind == "memory"
        assert resolve_backend("simulate", real=False).kind == "simulate"


class TestOpenContract:
    def test_duplicate_name_rejected(self):
        b = MemoryBackend()
        b.open("A", 8)
        with pytest.raises(BackendError, match="already has a file"):
            b.open("A", 8)

    def test_negative_size_rejected(self):
        with pytest.raises(BackendError, match="negative"):
            MemoryBackend().open("A", -1)

    def test_clone_has_fresh_namespace(self):
        b = MemoryBackend()
        b.open("A", 8)
        c = b.clone()
        c.open("A", 8)  # no duplicate-name clash across clones
        assert c is not b

    def test_close_clears_files(self):
        b = MemoryBackend()
        b.open("A", 8)
        b.close()
        b.open("A", 8)  # reopenable after close


class TestBackendMetrics:
    def test_properties_and_fold(self):
        a = BackendMetrics(get_ops=2, put_ops=1, bytes_read=16,
                           bytes_written=8, wall_read_s=0.5, wall_write_s=0.25)
        b = BackendMetrics(get_ops=1, bytes_read=4)
        total = BackendMetrics.fold([a, b])
        assert total.ops == 4
        assert total.bytes_moved == 28
        assert total.wall_s == 0.75
        assert total.to_dict()["get_ops"] == 3
        assert "ops=4" in str(total)

    def test_simulate_backend_raises_on_data(self):
        b = SimulateBackend()
        f = b.open("A", 8)
        with pytest.raises(RuntimeError, match="simulate-only"):
            f.gather(np.array([0], dtype=np.int64))
        with pytest.raises(RuntimeError, match="simulate-only"):
            f.scatter(np.array([0], dtype=np.int64), np.array([1.0]))


class _DictUnits(UnitFile):
    """The smallest whole-unit file: units in a dict, moves logged."""

    def __init__(self, n_elements, unit_elements):
        super().__init__("A", n_elements, DEFAULT_DTYPE, unit_elements)
        self.units = {}
        self.log = []

    def _load_unit(self, uid):
        self.log.append(("load", uid))
        data = self.units.get(uid)
        return np.zeros(self._unit_len(uid)) if data is None else data

    def _store_unit(self, uid, data):
        self.log.append(("store", uid))
        self.units[uid] = data


class TestUnitFile:
    """The one unit-granular gather/scatter the chunked and object
    backends share."""

    def test_concrete_files_use_the_shared_loops(self):
        for backend in (ChunkedBackend(), SimulatedObjectStore()):
            f = backend.open("A", 40, chunk_elements=16)
            assert isinstance(f, UnitFile)
            assert type(f).gather is UnitFile.gather
            assert type(f).scatter is UnitFile.scatter
            assert f.unit_elements == 16
            backend.close()

    def test_nonpositive_unit_rejected(self):
        with pytest.raises(BackendError, match="unit_elements"):
            _DictUnits(8, 0)

    def test_full_units_skip_the_read_partial_ones_do_not(self):
        f = _DictUnits(40, 16)          # units of 16, 16 and a tail of 8
        f.scatter(np.arange(16, 40), np.arange(24.0))
        assert f.log == [("store", 1), ("store", 2)]
        assert f.units[2].size == 8
        f.log.clear()
        f.scatter(np.array([3, 17]), np.array([-1.0, -2.0]))
        assert f.log == [
            ("load", 0), ("store", 0), ("load", 1), ("store", 1),
        ]
        got = f.gather(np.array([3, 16, 17, 39, 0]))
        np.testing.assert_array_equal(got, [-1.0, 0.0, -2.0, 23.0, 0.0])

    def test_full_overwrite_buffer_is_zeroed(self):
        # 8 addresses over an 8-element unit, one of them repeated: the
        # slot no address names must read 0, not uninitialised memory
        f = _DictUnits(8, 8)
        f.scatter(np.array([0, 1, 2, 3, 4, 5, 6, 6]), np.ones(8))
        np.testing.assert_array_equal(f.units[0], [1, 1, 1, 1, 1, 1, 1, 0])
