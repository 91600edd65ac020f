"""A byte-budgeted tile cache keyed on ``(array, region)``.

The runtime's unit of transfer is the rectangular data tile; the cache
holds recently moved tiles so revisits skip the file entirely.  It sits
*between* the executor and the stores: the cache never performs I/O
itself — lookups and insertions only mutate residency, and every
operation that obligates a write (flushing dirty tiles, evicting a dirty
victim) **returns** the affected entries for the caller to push through
the store's accounted write path.  That keeps one authority for I/O
accounting (``IOContext``) and lets the cache serve linear and
interleaved stores alike.

Residency is one record: the entry dict's order is the recency (least
recently used first; a touch re-appends) and ``in_use`` is a counter.
The overlap queries read a per-array-name index over that same order
(each name's entries, least recently used first), moved in step with it.

Memory honesty: the cache's budget is carved out of the executor's
:class:`~repro.runtime.memory.MemoryManager`, and every resident element
is allocated from it, so the peak-memory assertions of the seed tests
("no plan cheats by reading the whole array") keep holding with the
cache enabled.

Coherence: entries are exact-region keyed, but tile footprints of
neighbouring tiles overlap (stencil halos, bounding-box hulls) — and
that partial overlap is the dominant reuse pattern of a tile-space
walk.  :meth:`TileCache.coverage` maps which cells of a requested
region are resident so the executor can serve them from cache and read
only the remainder.  Dirty entries that overlap a region about to be
read in full are flushed first (:meth:`TileCache.flush_overlapping`),
and clean-but-stale overlaps are dropped after a write
(:meth:`TileCache.invalidate_overlapping`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..obs import profile as _prof
from ..runtime.memory import MemoryManager
from ..runtime.ooc_array import Region, region_size
from .metrics import CacheMetrics
from .policy import EvictionPolicy, make_policy

#: cache key: (array name, exact inclusive region)
TileKey = tuple[str, Region]


class CacheBudgetError(ValueError):
    """An invalid cache budget or tenant quota (named validation).

    Mirrors the :class:`~repro.runtime.params.MachineParams` named-check
    pattern: a zero or negative budget silently disables caching (or
    worse, un-partitions a shared cache's tenant isolation), so it is
    rejected up front with a message naming the offending value."""


def regions_overlap(a: Region, b: Region) -> bool:
    """Do two same-rank rectangular regions share any element?"""
    return all(alo <= bhi and blo <= ahi for (alo, ahi), (blo, bhi) in zip(a, b))


def intersect_slices(
    a: Region, b: Region
) -> tuple[tuple[slice, ...], tuple[slice, ...]] | None:
    """Slices of the overlap of two regions, in each region's own frame
    (``arr_a[sl_a]`` and ``arr_b[sl_b]`` address the same cells)."""
    sa, sb = [], []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo > hi:
            return None
        sa.append(slice(lo - alo, hi - alo + 1))
        sb.append(slice(lo - blo, hi - blo + 1))
    return tuple(sa), tuple(sb)


@dataclass
class CacheEntry:
    name: str
    region: Region
    size: int
    #: private copy of the tile data (None in simulate mode)
    data: np.ndarray | None
    dirty: bool = False
    prefetched: bool = False
    accesses: int = 0
    #: estimated seconds to re-fetch this tile from its layout's runs
    cost_s: float = 0.0
    #: scratch slot for stateful policies (GDSF priority)
    priority: float = field(default=0.0, compare=False)

    @property
    def key(self) -> TileKey:
        return (self.name, self.region)


@dataclass(frozen=True)
class CacheConfig:
    """Executor-facing switchboard for the tile cache subsystem.

    Handing a config to the executor turns the cache on; "off" is
    ``cache=None`` (the default), which takes the uncached code path
    with bit-identical accounting.
    """

    policy: str = "lru"
    #: share of the executor's memory budget carved out for the cache
    #: (the tile planner sizes tiles against the remainder)
    budget_fraction: float = 0.5
    #: explicit cache budget in elements; overrides ``budget_fraction``
    budget_elements: int | None = None
    #: ``write-back`` holds dirty tiles and writes them on eviction or at
    #: nest boundaries (coalescing rewrites); ``write-through`` writes
    #: every tile immediately and caches it clean
    write_mode: str = "write-back"
    prefetch: bool = False
    #: how many tiles ahead of the current one the scheduler fetches
    prefetch_depth: int = 1

    def __post_init__(self):
        if self.write_mode not in ("write-back", "write-through"):
            raise ValueError(f"unknown write mode {self.write_mode!r}")
        if self.budget_elements is None and not 0.0 < self.budget_fraction < 1.0:
            raise ValueError("budget_fraction must be in (0, 1)")
        if self.budget_elements is not None and self.budget_elements <= 0:
            raise ValueError("budget_elements must be positive")
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth must be at least 1")

    @property
    def write_back(self) -> bool:
        return self.write_mode == "write-back"

    def resolve_budget(self, memory_budget: int) -> int:
        if self.budget_elements is not None:
            return self.budget_elements
        return max(1, int(self.budget_fraction * memory_budget))


class TileCache:
    def __init__(
        self,
        budget_elements: int,
        policy: EvictionPolicy | str = "lru",
        *,
        memory: MemoryManager | None = None,
        metrics: CacheMetrics | None = None,
    ):
        try:
            budget = int(budget_elements)
        except (TypeError, ValueError):
            raise CacheBudgetError(
                f"cache budget must be an element count, "
                f"got {budget_elements!r}"
            ) from None
        if budget <= 0:
            raise CacheBudgetError(
                f"cache budget must be a positive element count, "
                f"got {budget_elements!r}"
            )
        self.budget = budget
        self.policy = make_policy(policy)
        self.memory = memory
        self.metrics = metrics or CacheMetrics()
        #: resident entries, least recently used first
        self._entries: dict[TileKey, CacheEntry] = {}
        #: the same entries by array name, each name's in the same order
        self._by_name: dict[str, dict[Region, CacheEntry]] = {}
        #: resident elements, moved by `insert` and `_remove` only
        self.in_use = 0

    # -- introspection ------------------------------------------------------

    def publish_metrics(self, registry, prefix: str = "cache") -> None:
        """Publish the current counters plus occupancy into an
        observability registry (:class:`repro.obs.MetricsRegistry`)."""
        self.metrics.publish(registry, prefix)
        registry.gauge(f"{prefix}.resident_tiles").set(len(self._entries))
        registry.gauge(f"{prefix}.in_use_elements").set(self.in_use)
        registry.gauge(f"{prefix}.budget_elements").set(self.budget)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CacheEntry]:
        """Resident entries, least recently used first."""
        return iter(self._entries.values())

    def fits(self, region: Region) -> bool:
        return region_size(region) <= self.budget

    def peek(self, name: str, region: Region) -> CacheEntry | None:
        """Residency check without touching hit/miss counters or
        recency (the deterministic probe-work counter still ticks)."""
        _prof.WORK.cache_probes += 1
        return self._entries.get((name, region))

    # -- the demand path ----------------------------------------------------

    def lookup(self, name: str, region: Region) -> CacheEntry | None:
        """Demand access: counts a hit or a miss, refreshes recency."""
        _prof.WORK.cache_probes += 1
        entry = self._entries.get((name, region))
        if entry is None:
            self.metrics.misses += 1
            return None
        self.metrics.hits += 1
        if entry.prefetched:
            self.metrics.prefetch_used += 1
            entry.prefetched = False
        self._touch(entry)
        return entry

    def coverage(
        self, name: str, region: Region
    ) -> tuple[np.ndarray, list[CacheEntry]] | None:
        """Which cells of ``region`` are resident?  Returns a boolean
        mask over the region and the contributing entries, or ``None``
        when nothing overlaps.  Dirty contributors need no flush — their
        data is the newest, so a partial read can take the covered cells
        straight from the cache and fetch only the remainder."""
        touching = self._overlapping(name, region)
        if not touching:
            return None
        sizes = tuple(hi - lo + 1 for lo, hi in region)
        mask = np.zeros(sizes, dtype=bool)
        for e in touching:
            dst, _ = intersect_slices(region, e.region)
            mask[dst] = True
            if e.prefetched:
                self.metrics.prefetch_used += 1
                e.prefetched = False
            self._touch(e)
        return mask, touching

    @staticmethod
    def fill_from(
        out: np.ndarray, region: Region, entries: list[CacheEntry]
    ) -> None:
        """Copy each entry's overlap with ``region`` into ``out`` (real
        mode).  Resident entries always agree on shared cells (writes
        invalidate overlapping entries), so copy order is irrelevant."""
        for e in entries:
            if e.data is None:
                continue
            pair = intersect_slices(region, e.region)
            if pair is None:
                continue
            dst, src = pair
            out[dst] = e.data[src]

    def insert(
        self,
        name: str,
        region: Region,
        data: np.ndarray | None,
        *,
        dirty: bool = False,
        prefetched: bool = False,
        cost_s: float = 0.0,
    ) -> tuple[bool, list[CacheEntry]]:
        """Insert or refresh a tile.

        Returns ``(accepted, writeback)``: evicted **dirty** entries the
        caller must write back, and whether the tile is now resident —
        insertion is declined when even after evicting everything there
        is no room (cache budget, or the shared :class:`MemoryManager`
        when a boundary compute tile transiently overshoots its planned
        footprint).  ``data`` is copied — the cache never aliases
        executor-owned buffers.  Regions larger than the whole budget are
        rejected with ``ValueError`` (check :meth:`fits`)."""
        size = region_size(region)
        if size > self.budget:
            raise ValueError(
                f"tile {name}{region} ({size} elements) exceeds the cache "
                f"budget ({self.budget})"
            )
        data = None if data is None else np.array(data, dtype=np.float64)
        existing = self._entries.get((name, region))
        if existing is not None:
            existing.data = data
            existing.dirty = existing.dirty or dirty
            self._touch(existing)
            return True, []
        accepted, writeback = self._make_room(size)
        if not accepted:
            return False, writeback
        entry = CacheEntry(
            name, region, size, data,
            dirty=dirty, prefetched=prefetched, accesses=1, cost_s=cost_s,
        )
        self._entries[entry.key] = entry
        self._by_name.setdefault(name, {})[region] = entry
        self.in_use += size
        if self.memory is not None:
            self.memory.allocate(size)
        self.policy.on_insert(entry)
        return True, writeback

    def victim(self) -> CacheEntry | None:
        """The policy's choice among the resident entries, offered least
        recently used first; ``None`` when there are none."""
        return self.policy.victim(self._entries.values())

    def evict_entry(self, name: str, region: Region) -> CacheEntry | None:
        """Evict one resident entry by key, counting the eviction — how a
        shared-pool coordinator (:class:`repro.serve.SharedTileCache`)
        evicts the quota-legal victim it chose.  Returns the
        entry when it was dirty — the caller owes the write-back — else
        ``None``; a miss (not resident) is a silent no-op returning ``None``.
        """
        entry = self._entries.get((name, region))
        return None if entry is None else self._evict(entry)

    # -- coherence and flushing --------------------------------------------

    def flush_overlapping(
        self, name: str, region: Region, *, exclude_exact: bool = False
    ) -> list[CacheEntry]:
        """Mark dirty entries overlapping ``region`` clean and return them
        for write-back; entries stay resident (their data is still the
        newest).  With ``exclude_exact`` the exact-key entry is skipped —
        used when that entry is about to be superseded wholesale."""
        out = [
            e
            for e in self._overlapping(name, region, exclude_exact)
            if e.dirty
        ]
        for e in out:
            e.dirty = False
        self.metrics.flushed_tiles += len(out)
        return out

    def invalidate_overlapping(
        self, name: str, region: Region, *, exclude_exact: bool = False
    ) -> list[CacheEntry]:
        """Drop entries overlapping ``region`` (stale after a write) and
        return them, least recently used first.  Dropped dirty entries
        keep their flag — callers that did not flush first must write
        them back themselves."""
        dropped = self._overlapping(name, region, exclude_exact)
        for e in dropped:
            self._remove(e)
        return dropped

    def flush_all(self) -> list[CacheEntry]:
        """Nest-boundary flush: every dirty entry becomes clean and is
        returned for write-back; clean data stays resident for cross-nest
        reuse."""
        out = [e for e in self._entries.values() if e.dirty]
        for e in out:
            e.dirty = False
        self.metrics.flushed_tiles += len(out)
        return out

    def clear(self) -> list[CacheEntry]:
        """Drop everything; returns dirty entries for write-back."""
        dirty = [e for e in self._entries.values() if e.dirty]
        for e in list(self._entries.values()):
            self._remove(e)
        return dirty

    # -- internals ----------------------------------------------------------

    def _overlapping(
        self, name: str, region: Region, exclude_exact: bool = False
    ) -> list[CacheEntry]:
        """``name``'s entries overlapping ``region``, least recent first."""
        return [
            e
            for r, e in self._by_name.get(name, {}).items()
            if regions_overlap(r, region)
            and not (exclude_exact and r == region)
        ]

    def _touch(self, entry: CacheEntry) -> None:
        entry.accesses += 1
        self._entries[entry.key] = self._entries.pop(entry.key)
        named = self._by_name[entry.name]
        named[entry.region] = named.pop(entry.region)
        self.policy.on_access(entry)

    def _need_room(self, size: int) -> bool:
        if self.in_use + size > self.budget:
            return True
        # the budget is shared with in-flight compute tiles through the
        # MemoryManager; a boundary tile overshooting its planned
        # footprint squeezes the cache, which must yield
        return (
            self.memory is not None
            and self.memory.in_use + size > self.memory.budget
        )

    def _make_room(self, size: int) -> tuple[bool, list[CacheEntry]]:
        writeback: list[CacheEntry] = []
        while self._need_room(size) and (victim := self.victim()) is not None:
            if self._evict(victim) is not None:
                writeback.append(victim)
        return not self._need_room(size), writeback

    def _evict(self, entry: CacheEntry) -> CacheEntry | None:
        """The one eviction step: count it, drop the entry, hand it back
        when it was dirty (the caller owes the write-back)."""
        self.metrics.evictions += 1
        if entry.dirty:
            self.metrics.dirty_evictions += 1
        self._remove(entry)
        return entry if entry.dirty else None

    def _remove(self, entry: CacheEntry) -> None:
        del self._entries[entry.key]
        del self._by_name[entry.name][entry.region]
        self.in_use -= entry.size
        if self.memory is not None:
            self.memory.free(entry.size)
