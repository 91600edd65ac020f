"""A shared, isolation-aware tile cache for multi-tenant serving.

One :class:`~repro.cache.tile_cache.TileCache` holds every tenant's
tiles (one budget, one recency order, LRU eviction), but the
serving layer cannot let tenants fight over it freely: a tenant that
storms the cache with a huge working set would evict everyone else and
convert *their* hits back into file I/O.  :class:`SharedTileCache`
wraps the pool with the two rules that make sharing safe:

- **reserved quotas** — each tenant's ``cache_quota_elements`` is a
  floor: another tenant's insertions may only evict this tenant's tiles
  while its residency stays **at or above** its reservation.  The
  unreserved remainder of the budget is a best-effort common pool any
  tenant may fill (and be evicted from).
- **namespacing** — keys are ``tenant ⊕ array``, so tenants never
  alias each other's tiles even when they run the same workload.

Within those constraints the victim is the least recently used entry
the isolation rule admits — found from a per-tenant index over the
pool's one recency order, each entry numbered by its last touch — so
the shared cache behaves exactly as the single-tenant cache does when
only one tenant is active.

The serving cache holds **clean read tiles only** (the scheduler
invalidates on writes — an invalidation drops a tile without counting
an eviction), so evictions never owe write-backs and the wrapper never
performs I/O — same division of authority as the underlying
:class:`TileCache`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from ..cache import CacheBudgetError, TileCache
from ..cache.tile_cache import CacheEntry, TileKey
from ..runtime.ooc_array import Region, region_size

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.metrics import MetricsRegistry

#: key namespace separator — NUL can appear in no array name
_SEP = "\x00"


def _ns(tenant: str, name: str) -> str:
    return f"{tenant}{_SEP}{name}"


@dataclass
class TenantCacheStats:
    """Per-tenant view of the shared pool's activity."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    #: insertions declined because no legal victim set could make room
    rejected: int = 0
    #: this tenant's tiles evicted (by anyone, incl. itself)
    evictions: int = 0
    #: subset of ``evictions`` triggered by another tenant's insertion
    evicted_by_others: int = 0
    #: serial I/O seconds its hits avoided (priced like the miss)
    saved_io_s: float = 0.0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def to_dict(self) -> dict[str, object]:
        return asdict(self)


class SharedTileCache:
    """Cross-tenant tile pool with reserved-quota isolation.

    ``quotas`` maps tenant name → reserved elements; their sum must fit
    in ``budget_elements`` (the remainder is the common pool).  Both are
    validated with named :class:`~repro.cache.CacheBudgetError`\\ s.
    """

    def __init__(self, budget_elements: int, quotas: Mapping[str, int]):
        self._cache = TileCache(budget_elements, "lru")
        self.quotas: dict[str, int] = {}
        for tenant, quota in quotas.items():
            try:
                quota = int(quota)
            except (TypeError, ValueError):
                raise CacheBudgetError(
                    f"tenant {tenant!r} cache quota must be an element "
                    f"count, got {quota!r}"
                ) from None
            if quota < 0:
                raise CacheBudgetError(
                    f"tenant {tenant!r} cache quota must be >= 0, "
                    f"got {quota!r}"
                )
            self.quotas[tenant] = quota
        reserved = sum(self.quotas.values())
        if reserved > self.budget:
            raise CacheBudgetError(
                f"tenant cache quotas sum to {reserved} elements, "
                f"exceeding the shared budget of {self.budget}"
            )
        #: unreserved elements any tenant may use best-effort
        self.common_pool = self.budget - reserved
        self._usage: dict[str, int] = {t: 0 for t in self.quotas}
        self.tenant_stats: dict[str, TenantCacheStats] = {
            t: TenantCacheStats() for t in self.quotas
        }
        #: each tenant's resident keys, least recently touched first, with
        #: (pool-wide sequence number of the last touch, size)
        self._recency: dict[str, dict[TileKey, tuple[int, int]]] = {
            t: {} for t in self.quotas
        }
        self._seq = 0

    # -- sizing -------------------------------------------------------------

    @property
    def budget(self) -> int:
        return self._cache.budget

    @property
    def in_use(self) -> int:
        return self._cache.in_use

    def reserved(self, tenant: str) -> int:
        return self.quotas[self._known(tenant)]

    def usage(self, tenant: str) -> int:
        return self._usage[self._known(tenant)]

    def limit(self, tenant: str) -> int:
        """The most this tenant may ever hold: its reservation plus the
        whole common pool."""
        return self.reserved(tenant) + self.common_pool

    def _known(self, tenant: str) -> str:
        if tenant not in self.quotas:
            raise CacheBudgetError(
                f"unknown tenant {tenant!r}; quota-registered tenants: "
                f"{sorted(self.quotas)}"
            )
        return tenant

    def __len__(self) -> int:
        return len(self._cache)

    def entries(self) -> Iterable[CacheEntry]:
        return iter(self._cache)

    # -- the demand path ----------------------------------------------------

    def lookup(self, tenant: str, name: str, region: Region) -> CacheEntry | None:
        """Demand access in the tenant's namespace; counts the hit or
        miss against both the pool and the tenant."""
        stats = self.tenant_stats[self._known(tenant)]
        key = (_ns(tenant, name), region)
        entry = self._cache.lookup(*key)
        if entry is None:
            stats.misses += 1
        else:
            stats.hits += 1
            stats.saved_io_s += entry.cost_s
            self._touched(tenant, key, entry.size)
        return entry

    def insert(
        self, tenant: str, name: str, region: Region, *, cost_s: float = 0.0
    ) -> bool:
        """Insert a clean read tile for ``tenant``; returns acceptance.

        Declined (never an error) when the tile exceeds the tenant's
        limit or when making room would require evicting another tenant
        below its reservation — isolation beats occupancy.
        """
        tenant = self._known(tenant)
        stats = self.tenant_stats[tenant]
        size = region_size(region)
        if size > self.limit(tenant):
            stats.rejected += 1
            return False
        key = (_ns(tenant, name), region)
        # a resident tile is refreshed in place: no size change, no room
        if self._cache.peek(*key) is None:
            if not self._make_room(tenant, size):
                stats.rejected += 1
                return False
            self._usage[tenant] += size
            stats.insertions += 1
        accepted, writeback = self._cache.insert(*key, None, cost_s=cost_s)
        assert accepted and not writeback, "room was made above"
        self._touched(tenant, key, size)
        return True

    def invalidate(self, tenant: str, name: str, region: Region) -> int:
        """Drop this tenant's entries overlapping a written region;
        returns how many were dropped.  Never touches other tenants."""
        tenant = self._known(tenant)
        dropped = self._cache.invalidate_overlapping(_ns(tenant, name), region)
        for e in dropped:
            del self._recency[tenant][e.key]
            self._usage[tenant] -= e.size
        return len(dropped)

    def _touched(self, tenant: str, key: TileKey, size: int) -> None:
        """Mirror the pool's re-append of ``key`` in its owner's index."""
        index = self._recency[tenant]
        index.pop(key, None)
        self._seq += 1
        index[key] = (self._seq, size)

    def _victim(
        self, tenant: str, own_only: bool
    ) -> tuple[str, TileKey, int] | None:
        """``(owner, key, size)`` of the least recently touched entry an
        insertion by ``tenant`` may evict.  Its own entries always; a
        foreign owner's only while eviction leaves it at or above its
        reservation — and never when ``tenant`` is over its own limit
        (``own_only``: only shrinking its own residency helps)."""
        best, best_seq = None, float("inf")
        own = self._recency[tenant]
        if own:
            key, (best_seq, size) = next(iter(own.items()))
            best = (tenant, key, size)
        if own_only:
            return best
        for owner, index in self._recency.items():
            slack = self._usage[owner] - self.quotas[owner]
            if owner == tenant or slack <= 0:
                continue
            for key, (seq, size) in index.items():
                if seq > best_seq:
                    break
                if size <= slack:
                    best, best_seq = (owner, key, size), seq
                    break
        return best

    def _make_room(self, tenant: str, size: int) -> bool:
        cache = self._cache
        while True:
            over_pool = cache.in_use + size > self.budget
            over_own = self._usage[tenant] + size > self.limit(tenant)
            if not over_pool and not over_own:
                return True
            victim = self._victim(tenant, over_own)
            if victim is None:
                return False
            owner, key, victim_size = victim
            del self._recency[owner][key]
            cache.evict_entry(*key)
            self._usage[owner] -= victim_size
            self.tenant_stats[owner].evictions += 1
            if owner != tenant:
                self.tenant_stats[owner].evicted_by_others += 1

    # -- reporting ----------------------------------------------------------

    @property
    def hits(self) -> int:
        return self._cache.metrics.hits

    @property
    def misses(self) -> int:
        return self._cache.metrics.misses

    @property
    def evictions(self) -> int:
        return self._cache.metrics.evictions

    @property
    def saved_io_s(self) -> float:
        return sum(s.saved_io_s for s in self.tenant_stats.values())

    def summary_dict(self) -> dict[str, object]:
        """JSON-ready summary for :meth:`ServeResult.summary_dict` and
        the rendered report's shared-cache line."""
        return {
            "budget_elements": self.budget,
            "in_use_elements": self.in_use,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "saved_io_s": self.saved_io_s,
            "tenants": {
                t: dict(self.tenant_stats[t].to_dict(), usage=self._usage[t])
                for t in sorted(self.quotas)
            },
        }

    def publish_metrics(
        self, registry: "MetricsRegistry", prefix: str = "serve.cache"
    ) -> None:
        """Publish pool occupancy plus per-tenant counters as gauges."""
        self._cache.publish_metrics(registry, prefix)
        for tenant in sorted(self.quotas):
            stats = self.tenant_stats[tenant]
            labels = {"tenant": tenant}
            registry.gauge(f"{prefix}.tenant_usage", **labels).set(
                self._usage[tenant]
            )
            registry.gauge(f"{prefix}.tenant_reserved", **labels).set(
                self.quotas[tenant]
            )
            for name, value in stats.to_dict().items():
                registry.gauge(f"{prefix}.tenant_{name}", **labels).set(value)
