"""POSIX flat-file backend: every array file is a real file on disk.

Files are created in a working directory (a private temporary directory
by default, cleaned up on :meth:`close`) and memory-mapped with
``np.memmap`` — gathers and scatters hit the page cache and, past it,
the disk.  Measured ``get_ops``/``put_ops`` count the **maximal
contiguous extents** an access touches: the ``pread``/``pwrite`` calls
an unmapped POSIX implementation would issue for the same address
pattern, and the unit the chunk-per-tile backend's object counts are
compared against.
"""

from __future__ import annotations

import os
import re
import shutil
import tempfile

import numpy as np

from .base import BackendFile, StorageBackend


_SAFE = re.compile(r"[^A-Za-z0-9._-]")


def safe_filename(name: str, taken: set[str]) -> str:
    """Filesystem-safe, collision-free translation of an array/file name
    (interleaved groups are named ``group:<g>`` or ``A+B+C``)."""
    base = _SAFE.sub("_", name) or "file"
    candidate, k = base, 1
    while candidate in taken:
        candidate = f"{base}.{k}"
        k += 1
    taken.add(candidate)
    return candidate


class _MmapFile(BackendFile):
    def __init__(self, name, n_elements, dtype, path, backend):
        super().__init__(name, n_elements, dtype)
        self.path = path
        self.metrics = backend.metrics
        # zero-filled sparse file of exactly n_elements scalars
        self._mm = np.memmap(
            path, dtype=dtype, mode="w+", shape=(max(1, n_elements),)
        )
        # the same pages as a plain ndarray: indexing it skips the
        # memmap subclass's per-result bookkeeping
        self.flat = self._mm.view(np.ndarray)

    def close(self) -> None:
        if self.closed:
            return
        self._mm.flush()
        # release the map so the directory can be removed on Windows-y
        # filesystems too: no buffer or view keeps a reference
        super().close()
        del self._mm


class MmapBackend(StorageBackend):
    """Flat on-disk files accessed through ``np.memmap``."""

    kind = "mmap"
    real = True
    measures = True

    def __init__(self, root: str | None = None):
        super().__init__()
        self._owns_root = root is None
        self.root = root or tempfile.mkdtemp(prefix="repro-mmap-")
        os.makedirs(self.root, exist_ok=True)
        self._taken: set[str] = set()

    def _open(self, name, n_elements, dtype, chunk_elements):
        path = os.path.join(
            self.root, safe_filename(name, self._taken) + ".dat"
        )
        return _MmapFile(name, n_elements, dtype, path, self)

    def clone(self) -> "MmapBackend":
        # a fresh private directory: clones are independent namespaces
        return MmapBackend()

    def close(self) -> None:
        super().close()
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)

    def describe(self) -> str:
        return f"mmap({self.root})"
