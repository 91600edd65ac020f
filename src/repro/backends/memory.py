"""The default backends: in-memory buffers and simulate-only files.

These two reproduce the pre-backend ``real=True`` / ``real=False``
behavior of :class:`repro.runtime.file.OOCFile` exactly — one numpy
buffer (moved by box or by address), the same "simulate-only" error on
data access — so every execution path stays bit-identical.
"""

from __future__ import annotations

import numpy as np

from .base import BackendFile, StorageBackend


class _MemoryFile(BackendFile):
    def __init__(self, name: str, n_elements: int, dtype: np.dtype):
        super().__init__(name, n_elements, dtype)
        self.flat = np.zeros(n_elements, dtype=dtype)


class MemoryBackend(StorageBackend):
    """Arrays live in ordinary numpy buffers (the ``real=True`` default)."""

    kind = "memory"
    real = True
    measures = False

    def _open(self, name, n_elements, dtype, chunk_elements):
        return _MemoryFile(name, n_elements, dtype)

    def clone(self) -> "MemoryBackend":
        return MemoryBackend()


class _SimulateFile(BackendFile):
    def gather(self, addresses: np.ndarray) -> np.ndarray:
        raise RuntimeError(f"file {self.name} is simulate-only")

    def scatter(self, addresses: np.ndarray, values: np.ndarray) -> None:
        raise RuntimeError(f"file {self.name} is simulate-only")


class SimulateBackend(StorageBackend):
    """No data at all — cost accounting only (the ``real=False`` path)."""

    kind = "simulate"
    real = False
    measures = False

    def _open(self, name, n_elements, dtype, chunk_elements):
        return _SimulateFile(name, n_elements, dtype)

    def clone(self) -> "SimulateBackend":
        return SimulateBackend()
