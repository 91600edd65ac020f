"""Layout-aware out-of-core arrays: tile transfers as contiguous-run I/O.

Reading a rectangular *data tile* from a file whose layout is ``D`` means
fetching every element of the region from its file slot.  The runtime
pays one I/O call per **maximal contiguous run** of file addresses (split
further by the maximum request size) — exactly the accounting behind the
paper's Figure 3: a 4x4 tile of a column-major array costs 4 calls, a
4x16 tile of the same array costs 4 (columns) if read along the wrong
axis but only 2 calls of 8 elements under the paper's machine limits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..layout import Layout
from ..obs import profile as _prof
from .file import OOCFile
from .pfs import ParallelFileSystem
from .stats import IOContext, plan_runs

#: A rectangular index region: inclusive ``(lo, hi)`` per dimension.
Region = tuple[tuple[int, int], ...]


def region_size(region: Region) -> int:
    n = 1
    for lo, hi in region:
        if hi < lo:
            return 0
        n *= hi - lo + 1
    return n


def region_shape(region: Region) -> tuple[int, ...]:
    """Extents of the tile a region holds (an empty region has a 0)."""
    return tuple(max(hi - lo + 1, 0) for lo, hi in region)


def check_region(region: Region, shape: Sequence[int], label: str) -> None:
    """The one definition of a transferable region, for every store: the
    array's rank and inside its bounds.  ``region_size(region) == 0``
    is valid and means nothing moves and nothing is accounted."""
    if len(region) != len(shape):
        raise ValueError(
            f"region rank {len(region)} != array rank {len(shape)}"
        )
    for (lo, hi), extent in zip(region, shape):
        if lo < 0 or hi >= extent:
            raise ValueError(
                f"region {region} escapes array {label}{tuple(shape)}"
            )


def _region_indices(region: Region) -> np.ndarray:
    sizes = region_shape(region)
    grid = np.indices(sizes).reshape(len(sizes), -1).T
    return grid + np.array([lo for lo, _ in region], dtype=np.int64)


def layout_chunk_elements(layout: Layout) -> int | None:
    """The chunk-size hint a layout gives chunk-granular backends: the
    tile footprint (block slots) of a blocked layout, nothing for
    linear layouts (they have no natural chunk shape)."""
    from ..layout.layouts import BlockedLayout

    if isinstance(layout, BlockedLayout):
        return int(np.prod(layout.block))
    return None


def runs_of(addresses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a set of file addresses into maximal contiguous runs;
    returns ``(offsets, lengths)`` sorted by offset."""
    if addresses.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    a = np.sort(addresses, kind="stable")
    breaks = np.flatnonzero(np.diff(a) != 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [a.size - 1]))
    return a[starts], (ends - starts + 1).astype(np.int64)


class OutOfCoreArray:
    """One disk-resident array with an explicit file layout."""

    def __init__(
        self,
        name: str,
        shape: Sequence[int],
        layout: Layout,
        file: OOCFile,
        *,
        slot_base: int = 0,
    ):
        self.name = name
        self.shape = tuple(int(s) for s in shape)
        self.layout = layout
        self.map = layout.address_map(self.shape)
        self.file = file
        self.slot_base = int(slot_base)
        needed = self.slot_base + self.map.total_slots
        if needed > file.n_elements:
            raise ValueError(
                f"file {file.name} has {file.n_elements} slots; "
                f"array {name} needs {needed}"
            )

    @classmethod
    def create(
        cls,
        name: str,
        shape: Sequence[int],
        layout: Layout,
        pfs: ParallelFileSystem,
        *,
        real: bool | None = None,
        backend=None,
        dtype=None,
    ) -> "OutOfCoreArray":
        am = layout.address_map(shape)
        file = OOCFile(
            name, am.total_slots, pfs, real=real, backend=backend,
            dtype=dtype, chunk_elements=layout_chunk_elements(layout),
        )
        return cls(name, shape, layout, file)

    # -- whole-region addressing -------------------------------------------

    def addresses(self, region: Region) -> np.ndarray:
        """The file slot of every element of the region, in row-major
        element order — what data movement needs."""
        check_region(region, self.shape, self.name)
        _prof.WORK.addresses_enumerated += region_size(region)
        return self.map.address(_region_indices(region)) + self.slot_base

    def runs(self, region: Region) -> tuple[np.ndarray, np.ndarray]:
        """The region's maximal contiguous file runs ``(offsets,
        lengths)``, sorted by offset — ``runs_of(self.addresses(region))``
        derived from the box and the layout, touching no element."""
        check_region(region, self.shape, self.name)
        offsets, lengths = self.map.runs(region)
        return offsets + self.slot_base, lengths

    def runs_many(
        self, regions: Sequence[Region]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`runs` of each region, end to end, ``counts`` runs each —
        a walk's tiles in one call (:meth:`AddressMap.runs_many`)."""
        for region in regions:
            check_region(region, self.shape, self.name)
        offsets, lengths, counts = self.map.runs_many(regions)
        return offsets + self.slot_base, lengths, counts

    def count_tile_io(self, region: Region, ctx: IOContext, is_write: bool) -> int:
        """Account the I/O for transferring the region; returns call
        count.  The Figure-3 reference: it decomposes the address of
        every element, which :meth:`runs` must reproduce exactly."""
        offsets, lengths = runs_of(self.addresses(region))
        return self.file.account_runs(ctx, offsets, lengths, is_write)

    # -- data movement --------------------------------------------------------
    # A transfer is priced from `runs` (box + layout) and moved, where a
    # file carries data, by `_load` / `_store` — two halves a caller may
    # take apart: a static walk is accounted up front and then only moves.

    def _load(self, region: Region) -> np.ndarray:
        """The region's data: a box of the file's view of the array, or
        where there is none (unit files, blocked maps) by addresses."""
        check_region(region, self.shape, self.name)
        if self.file.view(self.map, self.slot_base) is None:
            return self.file.gather(self.addresses(region)).reshape(
                region_shape(region)
            )
        return self.file.load_box(self.map, self.slot_base, region)

    def _store(self, region: Region, values: np.ndarray) -> None:
        """Put ``values`` (file dtype) in the region, as :meth:`_load`."""
        check_region(region, self.shape, self.name)
        if self.file.view(self.map, self.slot_base) is None:
            self.file.scatter(self.addresses(region), values.ravel())
        else:
            self.file.store_box(self.map, self.slot_base, region, values)

    def load_tile(self, region: Region) -> np.ndarray | None:
        """The tile's data (``None`` in simulate mode), accounting nothing."""
        if not self.file.real:
            return None
        return self._load(region)

    def store_tile(self, region: Region, data: np.ndarray | None) -> None:
        """Put the tile's data in the file, accounting nothing."""
        if not self.file.real:
            return
        if data is None:
            raise ValueError("real-mode write requires data")
        self._store(region, np.asarray(data, dtype=self.file.dtype))

    def read_tile(self, region: Region, ctx: IOContext) -> np.ndarray | None:
        """Fetch a tile.  Returns the tile data in real mode, else None."""
        self.file.account_runs(ctx, *self.runs(region), is_write=False)
        return self.load_tile(region)

    def read_tile_partial(
        self, region: Region, skip_mask: np.ndarray, ctx: IOContext
    ) -> np.ndarray | None:
        """Fetch only the elements of ``region`` where ``skip_mask`` is
        False; the caller supplies the rest (e.g. from a tile cache).
        Skipped positions are left zero in the returned tile.  Only the
        transferred runs are accounted — note that punching holes in a
        contiguous run can *increase* the call count, so callers should
        price the remainder against the full read first."""
        addrs = self.addresses(region)
        flat_skip = np.asarray(skip_mask, dtype=bool).ravel()
        if flat_skip.size != addrs.size:
            raise ValueError("skip mask does not match region")
        need = addrs[~flat_skip]
        offsets, lengths = runs_of(need)
        self.file.account_runs(ctx, offsets, lengths, is_write=False)
        if not self.file.real:
            return None
        out = np.zeros(flat_skip.size, dtype=self.file.dtype)
        if need.size:
            out[~flat_skip] = self.file.gather(need)
        return out.reshape(region_shape(region))

    def write_tile(
        self, region: Region, data: np.ndarray | None, ctx: IOContext
    ) -> None:
        self.file.account_runs(ctx, *self.runs(region), is_write=True)
        self.store_tile(region, data)

    # -- element access (verification only; no I/O accounting) -----------------

    def to_ndarray(self) -> np.ndarray:
        """Materialize the whole array (tests/verification)."""
        return self._load(tuple((0, s - 1) for s in self.shape))

    def load_ndarray(self, values: np.ndarray) -> None:
        """Initialize file contents from an in-core array (no accounting)."""
        if tuple(values.shape) != self.shape:
            raise ValueError(f"shape mismatch {values.shape} vs {self.shape}")
        self._store(
            tuple((0, s - 1) for s in self.shape),
            values.astype(self.file.dtype),
        )


class LinearStore:
    """Adapter giving plain arrays the combined read/write protocol of
    :class:`~repro.runtime.InterleavedChunkedStore` (the executor's tile
    walk talks to either through it)."""

    def __init__(self, arrays: dict[str, OutOfCoreArray]):
        self.arrays = arrays

    def _account(self, requests, ctx, is_write):
        """Record one tile's transfers — a segment per request — as one
        batch."""
        arrays = [self.arrays[req[0]] for req in requests]
        offsets, lengths = zip(
            *(arr.runs(req[1]) for arr, req in zip(arrays, requests))
        )
        ctx.record_runs(
            [arr.file.base_elem for arr in arrays],
            np.concatenate(offsets), np.concatenate(lengths),
            [is_write] * len(arrays), [o.size for o in offsets],
        )

    def load_tiles(self, requests):
        """Data per array name of ``(name, region)`` requests (``None``
        in simulate mode), accounting nothing."""
        return {
            name: self.arrays[name].load_tile(region)
            for name, region in requests
        }

    def store_tiles(self, requests):
        for name, region, data in requests:
            self.arrays[name].store_tile(region, data)

    def read_tiles(self, requests, ctx):
        self._account(requests, ctx, False)
        return self.load_tiles(requests)

    def write_tiles(self, requests, ctx):
        self._account(requests, ctx, True)
        self.store_tiles(requests)

    def transfer_runs(self, groups):
        """What ``read_tiles`` / ``write_tiles`` would account for each
        request list of ``groups``, accounting nothing: per group, a
        ``(file base, offsets, lengths)`` transfer per request."""
        regions: dict[str, list[Region]] = {}
        for group in groups:
            for name, region in group:
                regions.setdefault(name, []).append(region)
        answers = {}
        for name, asked in regions.items():
            offsets, lengths, counts = self.arrays[name].runs_many(asked)
            stops = counts.cumsum().tolist()
            answers[name] = iter([
                (offsets[a:b], lengths[a:b]) for a, b in zip([0, *stops], stops)
            ])
        return [
            [
                (self.arrays[name].file.base_elem, *next(answers[name]))
                for name, _ in group
            ]
            for group in groups
        ]

    def to_ndarray(self, name):
        return self.arrays[name].to_ndarray()

    def load_ndarray(self, name, values):
        self.arrays[name].load_ndarray(values)

    def estimate_read(self, name, region, params) -> tuple[int, int]:
        """(calls, elements) a read of the region would cost — the exact
        sieve/split planning of ``record_runs``, without recording."""
        offsets, lengths = plan_runs(params, *self.arrays[name].runs(region))
        return int(offsets.size), int(lengths.sum())
