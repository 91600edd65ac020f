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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..layout import Layout
from ..obs import profile as _prof
from .file import OOCFile
from .ooc_array import (
    LinearStore, OutOfCoreArray, Region, _region_indices, check_region,
    region_shape, region_size, runs_of,
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
            file_name or "+".join(self.names), total, pfs,
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
        return self._chunk_ids([(name, region)])[0]

    def _chunk_ids(self, requests) -> tuple[np.ndarray, np.ndarray]:
        """The chunk ids of requests ``(name, region, ...)`` end to end —
        each request's chunk box in row-major order — and how many each
        request has (none for an empty region); no loop over chunks."""
        slots = np.array([self.slot_of(req[0]) for req in requests], np.int64)
        for req in requests:
            check_region(req[1], self.shape, req[0])
        m = len(self.shape)
        box = np.array([req[1] for req in requests], np.int64).reshape(-1, m, 2)
        lo, hi = box[..., 0] + self._pad_np, box[..., 1] + self._pad_np
        b_lo = lo // self._block_np
        empty = (hi < lo).any(1)[:, None]
        extent = np.where(empty, 0, hi // self._block_np - b_lo + 1)
        counts = extent.prod(1)
        ids = np.zeros(counts.sum(), dtype=np.int64)
        k = np.arange(ids.size) - (counts.cumsum() - counts).repeat(counts)
        for d in range(m - 1, -1, -1):  # mixed radix, last dimension fastest
            e = extent[:, d].repeat(counts)
            ids += (b_lo[:, d].repeat(counts) + k % e) * self._grid_strides[d]
            k //= e
        return ids * self._n_arrays + slots.repeat(counts), counts

    # -- combined transfers ---------------------------------------------------

    def chunk_runs(self, requests) -> tuple[np.ndarray, np.ndarray]:
        """The file runs of one combined whole-chunk transfer of requests
        ``(name, region, ...)``: a run per maximal stretch of file-adjacent
        chunks across the request — this is where interleaving pays off
        (co-accessed tiles of different arrays sit in adjacent chunks and
        merge into a single call)."""
        return self.transfer_runs([requests])[0][0][1:]

    def transfer_runs(self, groups):
        """What ``read_tiles`` / ``write_tiles`` would account for each
        request list of ``groups``, accounting nothing: per group, its
        one combined ``(file base, offsets, lengths)`` transfer — all
        derived, sorted and cut into runs together, group keyed from group."""
        ids, counts = self._chunk_ids([req for group in groups for req in group])
        span = self.file.n_elements // self._block_slots + 1
        of_group = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        keys, lengths = runs_of(np.unique(of_group.repeat(counts) * span + ids))
        group, chunks = np.divmod(keys, span)
        stops = np.bincount(group, minlength=len(groups)).cumsum().tolist()
        offsets, lengths = chunks * self._block_slots, lengths * self._block_slots
        return [
            [(self.file.base_elem, offsets[a:b], lengths[a:b])]
            for a, b in zip([0, *stops], stops)
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


@dataclass(frozen=True)
class LinearStoreSpec:
    layout: Layout


@dataclass(frozen=True)
class InterleavedStoreSpec:
    group: str
    block: tuple[int, ...]
    origin: tuple[int, ...] | None = None  # chunk-grid anchor (tile corner)


StoreSpec = LinearStoreSpec | InterleavedStoreSpec


def open_stores(specs, shapes, pfs, backend=None, dtype=None) -> dict[str, object]:
    """The store serving each array of ``specs`` (name → :data:`StoreSpec`;
    ``shapes`` likewise), its files allocated in ``pfs``: one
    :class:`LinearStore` for every plain array, their files in spec
    order, then one :class:`InterleavedChunkedStore` per group."""
    linear: dict[str, OutOfCoreArray] = {}
    groups: dict[str, list[str]] = {}
    for name, spec in specs.items():
        if isinstance(spec, LinearStoreSpec):
            linear[name] = OutOfCoreArray.create(
                name, shapes[name], spec.layout, pfs, backend=backend, dtype=dtype
            )
        else:
            groups.setdefault(spec.group, []).append(name)
    stores: dict = dict.fromkeys(linear, LinearStore(linear))
    for group, names in groups.items():
        group_shapes = {shapes[n] for n in names}
        if len(group_shapes) != 1:
            raise ValueError(f"interleaved group {group} mixes shapes {group_shapes}")
        first = specs[names[0]]
        stores.update(dict.fromkeys(names, InterleavedChunkedStore(
            names, group_shapes.pop(), first.block, pfs, backend=backend,
            dtype=dtype, file_name=f"group:{group}", origin=first.origin,
        )))
    return stores
