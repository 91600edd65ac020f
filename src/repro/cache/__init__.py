"""Tile caching and asynchronous prefetch for the out-of-core runtime.

The paper's execution model (Section 4) pays full read + write-back I/O
for every tile visit — there is no reuse across tiles or across nests.
This package adds the PASSION-style runtime layer that hides exactly
that cost:

- :class:`TileCache` (:mod:`~repro.cache.tile_cache`) — a byte-budgeted
  cache of data tiles keyed on ``(array, region)``, with clean/dirty
  tracking, write-back or write-through semantics, and its budget carved
  out of the executor's :class:`~repro.runtime.memory.MemoryManager`;
- eviction policies (:mod:`~repro.cache.policy`) — LRU, LFU and a
  cost-aware GreedyDual variant that weighs each tile's re-fetch cost
  under its file layout's contiguity;
- :class:`PrefetchScheduler` and :class:`DoubleBufferModel`
  (:mod:`~repro.cache.prefetch`) — next-tile prefetch over the statically
  known tile-space order plus the overlapped-vs-exposed I/O accounting
  of double buffering;
- :class:`CacheMetrics` (:mod:`~repro.cache.metrics`) — hit/miss/
  eviction/prefetch counters and bytes-saved accounting, attached to
  :class:`~repro.runtime.stats.IOStats`.

Enable it per executor with :class:`CacheConfig`::

    from repro import CacheConfig, OOCExecutor

    ex = OOCExecutor(program, cache=CacheConfig(policy="lru", prefetch=True))
    result = ex.run()
    print(result.stats)            # ... cache[hit=...] prefetch[...]
    print(result.cache_metrics.hit_rate)

With no config (``cache=None``, the default) the executor's accounting
is bit-identical to the uncached runtime.
"""

from .metrics import CacheMetrics
from .policy import (
    POLICIES,
    CostAwarePolicy,
    EvictionPolicy,
    LFUPolicy,
    LRUPolicy,
    make_policy,
)
from .prefetch import DoubleBufferModel, PrefetchScheduler, overlap_credit
from .tile_cache import (
    CacheBudgetError,
    CacheConfig,
    CacheEntry,
    TileCache,
    intersect_slices,
    regions_overlap,
)

__all__ = [
    "CacheBudgetError",
    "CacheConfig",
    "CacheEntry",
    "CacheMetrics",
    "CostAwarePolicy",
    "DoubleBufferModel",
    "EvictionPolicy",
    "LFUPolicy",
    "LRUPolicy",
    "POLICIES",
    "PrefetchScheduler",
    "TileCache",
    "intersect_slices",
    "make_policy",
    "overlap_credit",
    "regions_overlap",
]
