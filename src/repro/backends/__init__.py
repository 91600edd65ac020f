"""Pluggable storage backends behind the out-of-core runtime.

The runtime's accounting (``IOStats``) is analytic and backend-
independent; a backend decides where the bytes actually live and
records the *measured* side (operations, bytes, wall seconds) so the
cost model can be validated against a byte-moving implementation:

- :class:`MemoryBackend` — numpy buffers (the ``real=True`` default,
  bit-identical to the pre-backend runtime);
- :class:`SimulateBackend` — no data, accounting only (``real=False``);
- :class:`MmapBackend` — real POSIX files via ``np.memmap``, measured
  contiguous-extent operation counts and wall seconds;
- :class:`ChunkedBackend` — Zarr/HDF5-style chunk-per-tile directory
  of whole-chunk files, chunk shape from the layout's blocking;
- :class:`SimulatedObjectStore` — S3-like high-latency/high-bandwidth
  store with per-object GET/PUT accounting and deterministic modeled
  time (:class:`ObjectStoreParams`).

Select a backend with ``OOCExecutor(..., backend="mmap")`` (or an
instance); the low-level ``OOCFile`` / ``OutOfCoreArray.create`` keep
the legacy ``real=True/False`` aliases.  See ``docs/backends.md``.
"""

from .base import (
    DEFAULT_DTYPE,
    BackendError,
    BackendFile,
    BackendMetrics,
    StorageBackend,
    contiguous_extents,
    resolve_backend,
    validate_dtype,
)
from .chunked import DEFAULT_CHUNK_ELEMENTS, ChunkedBackend
from .memory import MemoryBackend, SimulateBackend
from .object_store import ObjectStoreParams, SimulatedObjectStore
from .posix import MmapBackend

__all__ = [
    "BackendError",
    "BackendFile",
    "BackendMetrics",
    "StorageBackend",
    "MemoryBackend",
    "SimulateBackend",
    "MmapBackend",
    "ChunkedBackend",
    "SimulatedObjectStore",
    "ObjectStoreParams",
    "resolve_backend",
    "validate_dtype",
    "contiguous_extents",
    "DEFAULT_DTYPE",
    "DEFAULT_CHUNK_ELEMENTS",
]
