"""Pluggable eviction policies for the tile cache.

A policy ranks resident entries for eviction; the cache owns residency,
budgets and dirty state.  The cache offers ``victim`` its entries least
recently used first (recency is that order, so ``min`` returning the
*first* minimum is the LRU tie-break), counts ``accesses`` per entry and
calls the hooks the cost-aware policy keeps its priorities with.

Three policies ship:

- ``lru`` — evict the least recently used tile (good for the sweeping
  tile-space walks the planner emits);
- ``lfu`` — evict the least frequently used tile, ties broken LRU
  (protects small hot operands such as ADI's 1-D coefficient arrays);
- ``cost`` — GreedyDual-Size-Frequency: evict the tile that is cheapest
  to re-fetch per resident element, where the re-fetch cost comes from
  the file layout's contiguity (a tile that shatters into many I/O calls
  under its layout is worth keeping over one that reloads in a single
  sequential call).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from .tile_cache import CacheEntry


class EvictionPolicy:
    """Base policy: hooks are optional, ``victim`` is mandatory."""

    name = "base"
    #: whether the cache should compute a re-fetch cost on insert
    uses_cost = False

    def on_insert(self, entry: "CacheEntry") -> None:
        pass

    def on_access(self, entry: "CacheEntry") -> None:
        pass

    def victim(self, entries: Iterable["CacheEntry"]) -> "CacheEntry | None":
        """The entry to evict among ``entries``; ``None`` of none."""
        raise NotImplementedError


class LRUPolicy(EvictionPolicy):
    name = "lru"

    def victim(self, entries: Iterable["CacheEntry"]) -> "CacheEntry | None":
        return next(iter(entries), None)


class LFUPolicy(EvictionPolicy):
    name = "lfu"

    def victim(self, entries: Iterable["CacheEntry"]) -> "CacheEntry | None":
        return min(entries, key=lambda e: e.accesses, default=None)


class CostAwarePolicy(EvictionPolicy):
    """GreedyDual-Size-Frequency over layout-derived re-fetch cost.

    Priority of an entry is ``clock + accesses * cost_s / size``; the
    lowest-priority entry is evicted and its priority becomes the new
    clock, aging every survivor relative to fresh insertions.
    """

    name = "cost"
    uses_cost = True

    def __init__(self):
        self._clock = 0.0

    def _priority(self, entry: "CacheEntry") -> float:
        return self._clock + entry.accesses * entry.cost_s / max(1, entry.size)

    def on_access(self, entry: "CacheEntry") -> None:
        entry.priority = self._priority(entry)

    on_insert = on_access

    def victim(self, entries: Iterable["CacheEntry"]) -> "CacheEntry | None":
        v = min(entries, key=lambda e: e.priority, default=None)
        if v is not None:
            self._clock = v.priority
        return v


POLICIES: dict[str, type[EvictionPolicy]] = {
    LRUPolicy.name: LRUPolicy,
    LFUPolicy.name: LFUPolicy,
    CostAwarePolicy.name: CostAwarePolicy,
}


def make_policy(name: str | EvictionPolicy) -> EvictionPolicy:
    if isinstance(name, EvictionPolicy):
        return name
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown eviction policy {name!r}; known: {sorted(POLICIES)}"
        ) from None
