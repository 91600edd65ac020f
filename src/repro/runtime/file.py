"""A linear out-of-core file of scalar elements behind a storage backend.

Where the data lives is the backend's business (:mod:`repro.backends`):
the in-memory default carries a numpy buffer so programs can be executed
and verified; the simulate-only backend runs cost accounting without any
data (what the table-scale benchmarks use); the mmap/chunked/object
backends move real (or realistically priced) bytes and record measured
metrics.  ``real=True/False`` remain as aliases for the two defaults —
code written against the pre-backend API behaves bit-identically.
"""

from __future__ import annotations

import numpy as np

from ..backends import StorageBackend, resolve_backend
from .pfs import ParallelFileSystem
from .stats import IOContext


class OOCFile:
    def __init__(
        self,
        name: str,
        n_elements: int,
        pfs: ParallelFileSystem,
        *,
        real: bool | None = None,
        backend: StorageBackend | str | None = None,
        dtype=None,
        chunk_elements: int | None = None,
    ):
        self.name = name
        self.n_elements = int(n_elements)
        self.base_elem = pfs.allocate(name, self.n_elements)
        self.backend = resolve_backend(backend, real)
        self._bfile = self.backend.open(
            name, self.n_elements, dtype=dtype, chunk_elements=chunk_elements
        )
        self.dtype = self._bfile.dtype

    @property
    def real(self) -> bool:
        return self.backend.real

    # -- data paths (cost accounting is separate, see OutOfCoreArray) -----

    def gather(self, addresses: np.ndarray) -> np.ndarray:
        return self._bfile.gather(addresses)

    def scatter(self, addresses: np.ndarray, values: np.ndarray) -> None:
        self._bfile.scatter(addresses, values)

    def view(self, amap, base: int) -> np.ndarray | None:
        return self._bfile.view(amap, base)

    def load_box(self, amap, base: int, region) -> np.ndarray:
        return self._bfile.load_box(amap, base, region)

    def store_box(self, amap, base: int, region, values: np.ndarray) -> None:
        self._bfile.store_box(amap, base, region, values)

    # -- accounting ---------------------------------------------------------

    def account_runs(
        self,
        ctx: IOContext,
        offsets: np.ndarray,
        lengths: np.ndarray,
        is_write: bool,
    ) -> int:
        return ctx.record_runs(self.base_elem, offsets, lengths, is_write)
