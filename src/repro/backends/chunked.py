"""Chunk-per-tile backend: a Zarr/HDF5-style directory of chunk files.

The linear element space of each array file is cut into fixed-size
chunks, and every chunk is **one file on disk**, transferred whole —
the chunked-dataset discipline of Zarr / HDF5 / PASSION chunked files.
The chunk size comes from the layout's blocking (the ``chunk_elements``
hint the runtime passes when the array uses a
:class:`~repro.layout.BlockedLayout`), so one data tile lands in one —
or a handful of — chunks: *chunk-per-tile*.

Measured ``get_ops``/``put_ops`` count whole chunks read/written, and
``bytes_*`` count whole-chunk traffic (reading 3 elements of a 4096-
element chunk moves the whole chunk — the honesty that makes blocked
layouts win here and misaligned ones lose).  Partial-chunk writes are
read-modify-write: one GET plus one PUT.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from time import perf_counter

import numpy as np

from .base import BackendError, StorageBackend, UnitFile
from .posix import safe_filename

#: chunk size when the layout gives no blocking hint (a flat 32 KB of
#: float64 — one PFS stripe under the default machine constants)
DEFAULT_CHUNK_ELEMENTS = 4096


class _ChunkedFile(UnitFile):
    """One array as a directory of whole-chunk files."""

    def __init__(self, name, n_elements, dtype, root, backend, chunk_elements):
        super().__init__(name, n_elements, dtype, chunk_elements)
        self.root = root
        self._backend = backend
        os.makedirs(root, exist_ok=True)

    @property
    def chunk_elements(self) -> int:
        return self.unit_elements

    @property
    def n_chunks(self) -> int:
        return -(-self.n_elements // self.chunk_elements) if self.n_elements else 0

    def _chunk_path(self, cid: int) -> str:
        return os.path.join(self.root, f"c{cid:08d}.bin")

    def _load_unit(self, cid: int) -> np.ndarray:
        """Read one whole chunk (missing chunk = zeros, as for a sparse
        dataset that was never written)."""
        path = self._chunk_path(cid)
        ln = self._unit_len(cid)
        t0 = perf_counter()
        if os.path.exists(path):
            data = np.fromfile(path, dtype=self.dtype, count=ln)
        else:
            data = np.zeros(ln, dtype=self.dtype)
        self._backend.metrics.record(
            False, perf_counter() - t0, 1, ln * self.dtype.itemsize
        )
        return data

    def _store_unit(self, cid: int, data: np.ndarray) -> None:
        t0 = perf_counter()
        data.tofile(self._chunk_path(cid))
        self._backend.metrics.record(
            True, perf_counter() - t0, 1, data.size * self.dtype.itemsize
        )

    def chunks_on_disk(self) -> int:
        return sum(1 for f in os.listdir(self.root) if f.endswith(".bin"))


class ChunkedBackend(StorageBackend):
    """Whole-chunk on-disk storage, chunk shape from the layout blocking."""

    kind = "chunked"
    real = True
    measures = True

    def __init__(
        self,
        root: str | None = None,
        *,
        default_chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    ):
        super().__init__()
        if default_chunk_elements <= 0:
            raise BackendError(
                f"default_chunk_elements must be positive, "
                f"got {default_chunk_elements}"
            )
        self._owns_root = root is None
        self.root = root or tempfile.mkdtemp(prefix="repro-chunks-")
        os.makedirs(self.root, exist_ok=True)
        self.default_chunk_elements = int(default_chunk_elements)
        self._taken: set[str] = set()

    def _open(self, name, n_elements, dtype, chunk_elements):
        sub = os.path.join(self.root, safe_filename(name, self._taken))
        return _ChunkedFile(
            name, n_elements, dtype, sub, self,
            chunk_elements or self.default_chunk_elements,
        )

    def clone(self) -> "ChunkedBackend":
        return ChunkedBackend(
            default_chunk_elements=self.default_chunk_elements
        )

    def close(self) -> None:
        super().close()
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)

    def describe(self) -> str:
        return f"chunked({self.root}, default={self.default_chunk_elements})"
