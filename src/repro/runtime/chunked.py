"""Chunking + interleaving — the paper's hand-optimized ``h-opt`` storage.

Two mechanisms, both aimed purely at reducing I/O *calls*:

- **chunking**: each array is stored as contiguous data-tile-sized blocks
  (a :class:`~repro.layout.BlockedLayout`), so one aligned tile is one
  contiguous run;
- **interleaving**: the blocks of several arrays that a nest accesses
  *together* are placed round-robin in a single file, so the co-accessed
  tiles of all arrays form one contiguous super-run and can be fetched
  with a single call (up to the maximum request size).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..obs import profile as _prof
from .file import OOCFile
from .ooc_array import (
    Region, _region_indices, check_region, region_shape, region_size, runs_of,
)
from .pfs import ParallelFileSystem
from .stats import IOContext, plan_runs


class InterleavedChunkedStore:
    """Several same-shape arrays chunk-interleaved in one file.

    Block ``b`` of array slot ``s`` (0-based among the interleaved group)
    lives at file offset ``(b * n_arrays + s) * block_slots``.
    """

    def __init__(
        self,
        names: Sequence[str],
        shape: Sequence[int],
        block: Sequence[int],
        pfs: ParallelFileSystem,
        *,
        real: bool | None = None,
        backend=None,
        dtype=None,
        file_name: str | None = None,
        origin: Sequence[int] | None = None,
    ):
        if not names:
            raise ValueError("need at least one array")
        self.names = tuple(names)
        self.shape = tuple(int(s) for s in shape)
        self.block = tuple(int(b) for b in block)
        if len(self.block) != len(self.shape):
            raise ValueError("block rank must match shape rank")
        if any(b <= 0 for b in self.block):
            raise ValueError(f"invalid block {self.block}")
        # chunk grid anchored at `origin` (the first tile's corner — loop
        # lower bounds are often 1 in these Fortran-derived codes, and a
        # misaligned grid would split every tile across chunks)
        origin = tuple(int(o) for o in (origin or (0,) * len(self.shape)))
        if len(origin) != len(self.shape):
            raise ValueError("origin rank must match shape rank")
        self._pad = tuple(
            (b - (o % b)) % b for o, b in zip(origin, self.block)
        )
        self._grid = tuple(
            -(-(s + p) // b)
            for s, p, b in zip(self.shape, self._pad, self.block)
        )
        self._block_slots = int(np.prod(self.block))
        self._n_arrays = len(self.names)
        m = len(self.shape)
        self._grid_strides = np.ones(m, dtype=np.int64)
        self._in_strides = np.ones(m, dtype=np.int64)
        for r in range(m - 2, -1, -1):
            self._grid_strides[r] = self._grid_strides[r + 1] * self._grid[r + 1]
            self._in_strides[r] = self._in_strides[r + 1] * self.block[r + 1]
        total = int(np.prod(self._grid)) * self._block_slots * self._n_arrays
        self.file = OOCFile(
            file_name or "+".join(self.names), total, pfs, real=real,
            backend=backend, dtype=dtype,
            chunk_elements=self._block_slots,
        )
        self._block_np = np.asarray(self.block, dtype=np.int64)
        self._pad_np = np.asarray(self._pad, dtype=np.int64)

    def slot_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"{name} is not stored here") from None

    def addresses(self, name: str, region: Region) -> np.ndarray:
        slot = self.slot_of(name)
        check_region(region, self.shape, name)
        _prof.WORK.addresses_enumerated += region_size(region)
        idx = _region_indices(region) + self._pad_np
        b = idx // self._block_np
        w = idx - b * self._block_np
        block_linear = b @ self._grid_strides
        return (
            (block_linear * self._n_arrays + slot) * self._block_slots
            + w @ self._in_strides
        )

    def chunk_ids(self, name: str, region: Region) -> np.ndarray:
        """Linear ids of the chunks covering a region (whole-chunk I/O:
        a chunk is the transfer unit, as in PASSION's chunked files)."""
        slot = self.slot_of(name)
        check_region(region, self.shape, name)
        if region_size(region) == 0:
            return np.zeros(0, dtype=np.int64)
        lo = np.array([l for l, _ in region], dtype=np.int64) + self._pad_np
        hi = np.array([h for _, h in region], dtype=np.int64) + self._pad_np
        b_lo = lo // self._block_np
        b_hi = hi // self._block_np
        ranges = [np.arange(a, b + 1) for a, b in zip(b_lo, b_hi)]
        grid = np.stack(
            np.meshgrid(*ranges, indexing="ij"), axis=-1
        ).reshape(-1, len(self.shape))
        return (grid @ self._grid_strides) * self._n_arrays + slot

    # -- combined transfers ---------------------------------------------------

    def chunk_runs(self, requests) -> tuple[np.ndarray, np.ndarray]:
        """The file runs of one combined whole-chunk transfer of requests
        ``(name, region, ...)``: a run per maximal stretch of file-adjacent
        chunks across the request — this is where interleaving pays off
        (co-accessed tiles of different arrays sit in adjacent chunks and
        merge into a single call)."""
        ids = [self.chunk_ids(req[0], req[1]) for req in requests]
        offsets, lengths = runs_of(np.unique(np.concatenate(ids)))
        return offsets * self._block_slots, lengths * self._block_slots

    def transfer_runs(self, groups):
        """What ``read_tiles`` / ``write_tiles`` would account for each
        request list of ``groups``, accounting nothing: per group, its
        one combined ``(file base, offsets, lengths)`` transfer."""
        return [
            [(self.file.base_elem, *self.chunk_runs(group))] for group in groups
        ]

    def load_tiles(
        self, requests: Sequence[tuple[str, Region]]
    ) -> dict[str, np.ndarray | None]:
        """Data per array name (``None`` in simulate mode), accounting
        nothing."""
        if not self.file.real:
            return dict.fromkeys(name for name, _ in requests)
        return {
            name: self.file.gather(self.addresses(name, region)).reshape(
                region_shape(region)
            )
            for name, region in requests
        }

    def store_tiles(
        self, requests: Sequence[tuple[str, Region, np.ndarray | None]]
    ) -> None:
        if not self.file.real:
            return
        for name, region, data in requests:
            if data is None:
                raise ValueError("real-mode write requires data")
            self.file.scatter(
                self.addresses(name, region),
                np.asarray(data, dtype=self.file.dtype).ravel(),
            )

    def read_tiles(
        self, requests: Sequence[tuple[str, Region]], ctx: IOContext
    ) -> dict[str, np.ndarray | None]:
        """Fetch tiles of several arrays in one combined operation, at
        whole-chunk granularity."""
        if requests:
            self.file.account_runs(ctx, *self.chunk_runs(requests), False)
        return self.load_tiles(requests)

    def write_tiles(
        self,
        requests: Sequence[tuple[str, Region, np.ndarray | None]],
        ctx: IOContext,
    ) -> None:
        if requests:
            self.file.account_runs(ctx, *self.chunk_runs(requests), True)
        self.store_tiles(requests)

    def estimate_read(self, name: str, region: Region, params) -> tuple[int, int]:
        """(calls, elements) for a standalone whole-chunk read of the
        region, without recording.  Upper bound for combined multi-array
        requests — a region served elsewhere (a cache hit) cannot
        participate in another request's merged super-run."""
        offsets, lengths = plan_runs(params, *self.chunk_runs([(name, region)]))
        return int(offsets.size), int(lengths.sum())

    # -- verification helpers ---------------------------------------------------

    def to_ndarray(self, name: str) -> np.ndarray:
        region = tuple((0, s - 1) for s in self.shape)
        return self.file.gather(self.addresses(name, region)).reshape(self.shape)

    def load_ndarray(self, name: str, values: np.ndarray) -> None:
        if tuple(values.shape) != self.shape:
            raise ValueError(f"shape mismatch {values.shape} vs {self.shape}")
        region = tuple((0, s - 1) for s in self.shape)
        self.file.scatter(
            self.addresses(name, region), values.astype(self.file.dtype).ravel()
        )
