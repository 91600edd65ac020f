"""The storage-backend seam: where accounted I/O meets moved bytes.

The cost model prices every transfer analytically (``IOContext``), and
that accounting is *backend-independent* by design — the same program
under the same layouts issues the same calls whether the bytes live in a
numpy buffer, an mmap'ed POSIX file, a directory of chunk files or a
simulated object store.  What a backend adds is the **measured** side:
how many physical operations the address pattern actually turned into,
how many bytes moved, and how long the moves took.  Comparing the two is
the point — the cost-model drift telemetry (:mod:`repro.obs`) can then
hold predicted I/O against a byte-moving implementation instead of
against itself.

Contract
--------
- A :class:`StorageBackend` is a factory for :class:`BackendFile`
  handles over a *linear element space* (the layout engine has already
  mapped array indices to file slots).
- A linear-layout array over a flat file buffer (memory, mmap) moves a
  tile as a box of its strided view (``load_box``/``store_box``); every
  other file or map (whole-unit files, blocked layouts, interleaved
  stores) moves element addresses (``gather``/``scatter``) — with the
  same measured operations and bytes.  Simulate-only backends raise,
  exactly like the old ``real=False`` buffer-less file; a closed file
  raises :class:`BackendError` and keeps no buffer or view.
- Accounting (``IOStats``) never touches the backend: with any backend,
  folded stats are bit-identical to the in-memory default.
- Backends with ``measures = True`` record :class:`BackendMetrics`
  (operations, bytes, wall seconds) that the executor publishes into
  ``repro.obs`` gauges.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable

import numpy as np


class BackendError(ValueError):
    """Invalid backend configuration or misuse of a backend file."""


#: dtype kinds a backend file may carry (floats, signed/unsigned ints)
_ALLOWED_DTYPE_KINDS = frozenset("fiu")

DEFAULT_DTYPE = np.dtype(np.float64)


def validate_dtype(dtype) -> np.dtype:
    """Normalize and validate an element dtype (default float64).

    Only plain numeric dtypes are allowed — the runtime's tiles, the
    interpreter and the cost model all assume fixed-size scalar
    elements (``MachineParams.element_size`` prices them).
    """
    if dtype is None:
        return DEFAULT_DTYPE
    try:
        dt = np.dtype(dtype)
    except TypeError as exc:
        raise BackendError(f"invalid element dtype {dtype!r}") from exc
    if dt.kind not in _ALLOWED_DTYPE_KINDS or dt.itemsize == 0:
        raise BackendError(
            f"unsupported element dtype {dt!r}: backends store plain "
            f"numeric scalars (float/int/uint)"
        )
    return dt


@dataclass
class BackendMetrics:
    """Measured (not modeled) transfer counters for one backend.

    ``get_ops``/``put_ops`` count *physical* operations at the
    backend's own granularity: contiguous-extent accesses for the mmap
    backend, whole chunks for the chunked backend, object GETs/PUTs for
    the object store.  ``wall_read_s``/``wall_write_s`` are measured
    wall-clock seconds except for the simulated object store, where
    they are the store's own latency/bandwidth model (deterministic).
    """

    get_ops: int = 0
    put_ops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    wall_read_s: float = 0.0
    wall_write_s: float = 0.0

    @property
    def ops(self) -> int:
        return self.get_ops + self.put_ops

    @property
    def bytes_moved(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def wall_s(self) -> float:
        return self.wall_read_s + self.wall_write_s

    def add(self, other: "BackendMetrics") -> "BackendMetrics":
        self.get_ops += other.get_ops
        self.put_ops += other.put_ops
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.wall_read_s += other.wall_read_s
        self.wall_write_s += other.wall_write_s
        return self

    def record(
        self, is_write: bool, seconds: float, ops: int, nbytes: int
    ) -> None:
        """Count one access: ``ops`` operations moving ``nbytes``
        (``seconds`` comes first so that a caller's timer stops before
        ``ops`` is counted)."""
        if is_write:
            self.put_ops += ops
            self.bytes_written += nbytes
            self.wall_write_s += seconds
        else:
            self.get_ops += ops
            self.bytes_read += nbytes
            self.wall_read_s += seconds

    @classmethod
    def fold(cls, items: "Iterable[BackendMetrics]") -> "BackendMetrics":
        total = cls()
        for m in items:
            total.add(m)
        return total

    def to_dict(self) -> dict:
        return {
            "get_ops": self.get_ops,
            "put_ops": self.put_ops,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "wall_read_s": self.wall_read_s,
            "wall_write_s": self.wall_write_s,
        }

    def __str__(self) -> str:
        return (
            f"ops={self.ops} (g{self.get_ops}/p{self.put_ops}) "
            f"bytes={self.bytes_moved} wall={self.wall_s:.6f}s"
        )


def contiguous_extents(addresses: np.ndarray) -> int:
    """Number of maximal contiguous extents in an address set."""
    if addresses.size == 0:
        return 0
    a = np.sort(addresses, kind="stable")
    return 1 + int(np.count_nonzero(np.diff(a) != 1))


def _box(region) -> tuple[slice, ...]:
    """An inclusive ``(lo, hi)``-per-dimension region as basic slices."""
    return tuple([slice(lo, max(hi + 1, lo)) for lo, hi in region])


class BackendFile:
    """One linear file of ``n_elements`` scalars inside a backend.

    :meth:`gather` / :meth:`scatter` move int64 element-address arrays
    (produced by the layout engine, always in ``[0, n_elements)``) and
    :meth:`load_box` / :meth:`store_box` move boxes, both over
    :attr:`flat`; a file without one overrides the address moves.  A
    flat file with :attr:`metrics` counts each move's maximal contiguous
    extents — a box's from the box and the layout, not its addresses.
    """

    #: the file's elements as one flat buffer, or ``None``
    flat: np.ndarray | None = None
    #: where a measuring flat file counts its moves
    metrics: BackendMetrics | None = None

    def __init__(self, name: str, n_elements: int, dtype: np.dtype):
        self.name = name
        self.n_elements = int(n_elements)
        self.dtype = dtype
        self.closed = False
        self._views: dict = {}

    def _check_open(self) -> None:
        if self.closed:
            raise BackendError(f"file {self.name} is closed")

    def gather(self, addresses: np.ndarray) -> np.ndarray:
        self._check_open()
        t0 = perf_counter()
        out = self.flat[addresses]
        if self.metrics is not None:
            self.metrics.record(False, perf_counter() - t0,
                                contiguous_extents(addresses), out.nbytes)
        return out

    def scatter(self, addresses: np.ndarray, values: np.ndarray) -> None:
        self._check_open()
        t0 = perf_counter()
        self.flat[addresses] = values
        if self.metrics is not None:
            self.metrics.record(True, perf_counter() - t0,
                                contiguous_extents(addresses),
                                addresses.size * self.dtype.itemsize)

    def view(self, amap, base: int) -> np.ndarray | None:
        """The array ``amap`` places from slot ``base`` on as a strided
        view of :attr:`flat`, kept until close; ``None``: no view."""
        self._check_open()
        views = self._views
        if (amap, base) not in views:
            views[amap, base] = (
                None if self.flat is None else amap.view(self.flat[base:])
            )
        return views[amap, base]

    def load_box(self, amap, base: int, region) -> np.ndarray:
        """A copy of the region of :meth:`view`, in row-major order."""
        t0 = perf_counter()
        out = np.array(self.view(amap, base)[_box(region)], order="C")
        if self.metrics is not None:
            self.metrics.record(False, perf_counter() - t0,
                                amap.extents(region), out.nbytes)
        return out

    def store_box(self, amap, base: int, region, values: np.ndarray) -> None:
        """Put ``values`` (row-major) in the region of :meth:`view`."""
        t0 = perf_counter()
        target = self.view(amap, base)[_box(region)]
        target[...] = np.reshape(values, target.shape)
        if self.metrics is not None:
            self.metrics.record(True, perf_counter() - t0,
                                amap.extents(region), target.nbytes)

    def close(self) -> None:
        """Release the buffer and its views (subclasses: OS resources)."""
        self.closed = True
        self.flat = None
        self._views.clear()


class UnitFile(BackendFile):
    """A file stored as whole fixed-size units (chunk files, objects):
    every access moves whole units — reading 3 elements of a
    4096-element unit loads the unit — and a partial-unit write is a
    read-modify-write.  Subclasses move one unit
    (:meth:`_load_unit` / :meth:`_store_unit`) and account for it."""

    def __init__(self, name, n_elements, dtype, unit_elements):
        super().__init__(name, n_elements, dtype)
        if unit_elements <= 0:
            raise BackendError(
                f"unit_elements must be positive, got {unit_elements}"
            )
        self.unit_elements = int(unit_elements)

    def _unit_len(self, uid: int) -> int:
        """Elements in unit ``uid`` (the tail unit may be short)."""
        return min(
            self.unit_elements, self.n_elements - uid * self.unit_elements
        )

    def _load_unit(self, uid: int) -> np.ndarray:
        """One whole unit (never written = zeros).  :meth:`scatter`
        updates the result in place and hands it to
        :meth:`_store_unit`, so it may be the stored array itself."""
        raise NotImplementedError

    def _store_unit(self, uid: int, data: np.ndarray) -> None:
        raise NotImplementedError

    def gather(self, addresses: np.ndarray) -> np.ndarray:
        self._check_open()
        out = np.empty(addresses.shape, dtype=self.dtype)
        uids = addresses // self.unit_elements
        for uid in np.unique(uids):
            uid = int(uid)
            mask = uids == uid
            local = addresses[mask] - uid * self.unit_elements
            out[mask] = self._load_unit(uid)[local]
        return out

    def scatter(self, addresses: np.ndarray, values: np.ndarray) -> None:
        self._check_open()
        values = np.asarray(values).ravel()
        uids = addresses // self.unit_elements
        for uid in np.unique(uids):
            uid = int(uid)
            mask = uids == uid
            local = addresses[mask] - uid * self.unit_elements
            if local.size == self._unit_len(uid):
                # full-unit overwrite: no read-modify-write needed
                data = np.zeros(local.size, dtype=self.dtype)
            else:
                data = self._load_unit(uid)
            data[local] = values[mask]
            self._store_unit(uid, data)


class StorageBackend:
    """Factory for backend files plus the backend's measured metrics."""

    #: short identifier ("memory", "simulate", "mmap", "chunked", "object")
    kind: str = "abstract"
    #: whether files carry actual data (``False`` = accounting only)
    real: bool = True
    #: whether this backend records measured :class:`BackendMetrics`
    measures: bool = False

    def __init__(self):
        self.metrics = BackendMetrics()
        self._files: dict[str, BackendFile] = {}

    def open(
        self,
        name: str,
        n_elements: int,
        *,
        dtype=None,
        chunk_elements: int | None = None,
    ) -> BackendFile:
        """Create the named file.  ``chunk_elements`` is the layout's
        tile-footprint hint — chunk-granular backends size their chunks
        from it; linear backends ignore it."""
        if name in self._files:
            raise BackendError(
                f"backend {self.kind!r} already has a file named {name!r}"
            )
        if n_elements < 0:
            raise BackendError(f"negative file size {n_elements}")
        f = self._open(
            name, int(n_elements), validate_dtype(dtype), chunk_elements
        )
        self._files[name] = f
        return f

    def _open(
        self,
        name: str,
        n_elements: int,
        dtype: np.dtype,
        chunk_elements: int | None,
    ) -> BackendFile:
        raise NotImplementedError

    def clone(self) -> "StorageBackend":
        """A fresh backend with the same configuration and no files —
        the SPMD driver gives each rank its own clone so per-rank file
        namespaces (and metrics) stay independent."""
        raise NotImplementedError

    def close(self) -> None:
        for f in self._files.values():
            f.close()
        self._files.clear()

    def describe(self) -> str:
        return self.kind

    def __repr__(self) -> str:
        return f"<{type(self).__name__} kind={self.kind!r} files={len(self._files)}>"


def resolve_backend(backend, real: bool | None = None) -> StorageBackend:
    """Resolve a ``backend=``/``real=`` pair to an instance.

    - ``backend`` may be a :class:`StorageBackend`, a kind string
      (``"memory"``, ``"simulate"``, ``"mmap"``, ``"chunked"``,
      ``"object"``), or ``None``;
    - with ``backend=None`` the legacy boolean picks the in-memory
      (``real=True``) or simulate-only (``real=False``) backend — the
      exact pre-backend behavior;
    - passing both a backend and a *contradicting* ``real`` flag is an
      error (a simulate-only request cannot run on a data-moving
      backend and vice versa).
    """
    if backend is None or isinstance(backend, str):
        from .chunked import ChunkedBackend
        from .memory import MemoryBackend, SimulateBackend
        from .object_store import SimulatedObjectStore
        from .posix import MmapBackend

        makers = {
            "memory": MemoryBackend,
            "simulate": SimulateBackend,
            "mmap": MmapBackend,
            "chunked": ChunkedBackend,
            "object": SimulatedObjectStore,
        }
        if backend is None:
            backend = "memory" if (real is None or real) else "simulate"
        if backend not in makers:
            raise BackendError(
                f"unknown backend kind {backend!r}; known: {sorted(makers)}"
            )
        backend = makers[backend]()
    if not isinstance(backend, StorageBackend):
        raise BackendError(
            f"backend must be a StorageBackend, kind string or None, "
            f"got {type(backend).__name__}"
        )
    if real is not None and bool(real) != backend.real:
        raise BackendError(
            f"real={real} contradicts backend {backend.kind!r} "
            f"(real={backend.real})"
        )
    return backend
