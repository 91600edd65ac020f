"""Simulated object store: S3-like latency/bandwidth, per-object GET/PUT.

Cloud object stores invert the machine balance the 1999 cost model was
built on: per-request latency is *orders of magnitude* higher than a
local syscall (tens of milliseconds per GET) while streaming bandwidth
is plentiful — so minimizing the number of objects touched dominates
minimizing bytes, even more sharply than call-count minimization did on
the Paragon.  This backend models that regime deterministically: data
lives in memory (results stay exact), every whole-object GET/PUT is
accounted per object, and "measured" time is the store's own
latency + size/bandwidth model — reproducible, unlike wall clocks.

Objects partition each file's linear element space at ``object_elements``
granularity, sized from the layout's blocking hint like the chunked
backend — one tile per object when the layout is blocked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import BackendError, StorageBackend, UnitFile


@dataclass(frozen=True)
class ObjectStoreParams:
    """MachineParams-style constants for the simulated store.

    The defaults are cloud-object-store magnitudes: ~30 ms to first
    byte (vs 15 ms per *local* I/O call in :class:`MachineParams`, and
    microseconds for a syscall today) but ~100 MB/s per stream.
    """

    get_latency_s: float = 0.030
    put_latency_s: float = 0.045
    bandwidth_bps: float = 100.0e6
    #: object granularity when no layout blocking hint is given
    default_object_elements: int = 4096

    def __post_init__(self):
        for name in ("get_latency_s", "put_latency_s"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise BackendError(
                    f"{name} must be finite and non-negative, got {v!r}"
                )
        if not math.isfinite(self.bandwidth_bps) or self.bandwidth_bps <= 0:
            raise BackendError(
                f"bandwidth_bps must be finite and positive, "
                f"got {self.bandwidth_bps!r}"
            )
        if self.default_object_elements <= 0:
            raise BackendError(
                f"default_object_elements must be positive, "
                f"got {self.default_object_elements!r}"
            )

    def get_time(self, nbytes: int) -> float:
        return self.get_latency_s + nbytes / self.bandwidth_bps

    def put_time(self, nbytes: int) -> float:
        return self.put_latency_s + nbytes / self.bandwidth_bps


class _ObjectFile(UnitFile):
    """One array as whole objects; a partial-object update is one GET
    plus one PUT (object stores have no byte-range writes)."""

    def __init__(self, name, n_elements, dtype, backend, object_elements):
        super().__init__(name, n_elements, dtype, object_elements)
        self._backend = backend
        #: object id -> data (created lazily; missing object = zeros)
        self._objects: dict[int, np.ndarray] = {}

    def _load_unit(self, oid: int) -> np.ndarray:
        b = self._backend
        ln = self._unit_len(oid)
        data = self._objects.get(oid)
        if data is None:
            data = np.zeros(ln, dtype=self.dtype)
        nbytes = ln * self.dtype.itemsize
        b.metrics.record(False, b.params.get_time(nbytes), 1, nbytes)
        b._count(self.name, oid, is_put=False)
        return data

    def _store_unit(self, oid: int, data: np.ndarray) -> None:
        b = self._backend
        self._objects[oid] = data
        nbytes = data.size * self.dtype.itemsize
        b.metrics.record(True, b.params.put_time(nbytes), 1, nbytes)
        b._count(self.name, oid, is_put=True)


class SimulatedObjectStore(StorageBackend):
    """In-memory object store with cloud-magnitude request pricing."""

    kind = "object"
    real = True
    measures = True

    def __init__(self, params: ObjectStoreParams | None = None):
        super().__init__()
        self.params = params or ObjectStoreParams()
        #: per-object accounting: (file name, object id) -> [gets, puts]
        self.object_counts: dict[tuple[str, int], list[int]] = {}

    def _count(self, file_name: str, oid: int, *, is_put: bool) -> None:
        c = self.object_counts.setdefault((file_name, oid), [0, 0])
        c[1 if is_put else 0] += 1

    @property
    def objects_touched(self) -> int:
        """Distinct (file, object) pairs any GET or PUT ever hit."""
        return len(self.object_counts)

    def _open(self, name, n_elements, dtype, chunk_elements):
        return _ObjectFile(
            name, n_elements, dtype, self,
            chunk_elements or self.params.default_object_elements,
        )

    def clone(self) -> "SimulatedObjectStore":
        return SimulatedObjectStore(self.params)

    def describe(self) -> str:
        p = self.params
        return (
            f"object(get={p.get_latency_s * 1e3:.0f}ms, "
            f"put={p.put_latency_s * 1e3:.0f}ms, "
            f"bw={p.bandwidth_bps / 1e6:.0f}MB/s)"
        )
