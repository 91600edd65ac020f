import pytest

from repro.cache import CacheBudgetError
from repro.serve import SharedTileCache


def R(lo, hi):
    return ((lo, hi),)


class TestQuotaValidation:
    def test_negative_quota_names_tenant(self):
        with pytest.raises(CacheBudgetError, match="'a'"):
            SharedTileCache(100, {"a": -1})

    def test_non_numeric_quota(self):
        with pytest.raises(CacheBudgetError, match="'a'"):
            SharedTileCache(100, {"a": "lots"})

    def test_quotas_exceed_budget(self):
        with pytest.raises(CacheBudgetError, match="exceeding"):
            SharedTileCache(100, {"a": 60, "b": 60})

    def test_zero_budget_rejected(self):
        with pytest.raises(CacheBudgetError):
            SharedTileCache(0, {"a": 0})

    def test_unknown_tenant_rejected(self):
        c = SharedTileCache(100, {"a": 50})
        with pytest.raises(CacheBudgetError, match="unknown tenant"):
            c.lookup("zz", "A", R(0, 9))
        with pytest.raises(CacheBudgetError, match="unknown tenant"):
            c.insert("zz", "A", R(0, 9))


class TestBasics:
    def test_insert_lookup_namespaced(self):
        c = SharedTileCache(100, {"a": 40, "b": 40})
        assert c.insert("a", "A", R(0, 9))
        assert c.lookup("a", "A", R(0, 9)) is not None
        # same array name, other tenant: different namespace
        assert c.lookup("b", "A", R(0, 9)) is None
        assert c.usage("a") == 10 and c.usage("b") == 0
        assert c.tenant_stats["a"].hits == 1
        assert c.tenant_stats["b"].misses == 1

    def test_limit_is_reserved_plus_common_pool(self):
        c = SharedTileCache(100, {"a": 40, "b": 40})
        assert c.common_pool == 20
        assert c.limit("a") == 60

    def test_oversized_tile_declined(self):
        c = SharedTileCache(100, {"a": 40, "b": 40})
        assert not c.insert("a", "A", R(0, 60))  # 61 > limit 60
        assert c.tenant_stats["a"].rejected == 1

    def test_saved_io_priced_at_insert_cost(self):
        c = SharedTileCache(100, {"a": 100})
        c.insert("a", "A", R(0, 9), cost_s=0.25)
        c.lookup("a", "A", R(0, 9))
        c.lookup("a", "A", R(0, 9))
        assert c.tenant_stats["a"].saved_io_s == pytest.approx(0.5)
        assert c.saved_io_s == pytest.approx(0.5)

    def test_own_entries_evicted_when_full(self):
        c = SharedTileCache(30, {"a": 30})
        for i in range(4):  # 4 × 10 elements into a 30-element pool
            assert c.insert("a", "A", R(100 * i, 100 * i + 9))
        assert c.usage("a") == 30
        assert c.tenant_stats["a"].evictions == 1
        # LRU: the oldest tile went
        assert c.lookup("a", "A", R(0, 9)) is None

    def test_invalidate_own_namespace_only(self):
        c = SharedTileCache(100, {"a": 40, "b": 40})
        c.insert("a", "A", R(0, 9))
        c.insert("b", "A", R(0, 9))
        dropped = c.invalidate("a", "A", R(5, 20))
        assert dropped == 1
        assert c.usage("a") == 0 and c.usage("b") == 10
        assert c.lookup("b", "A", R(0, 9)) is not None


class TestIsolation:
    def test_storm_cannot_evict_below_reservation(self):
        """Tenant A's insertion storm may consume the common pool but
        never dig tenant B below its reserved quota."""
        c = SharedTileCache(100, {"a": 30, "b": 50})
        # B fills exactly its reservation
        for i in range(5):
            assert c.insert("b", "B", R(100 * i, 100 * i + 9))
        assert c.usage("b") == 50
        # A storms with far more than the whole cache
        for i in range(50):
            c.insert("a", "A", R(100 * i, 100 * i + 9))
        assert c.usage("b") == 50, "B was evicted below its reservation"
        assert c.tenant_stats["b"].evicted_by_others == 0
        # A got at most reserved(a) + common pool
        assert c.usage("a") <= c.limit("a") == 50

    def test_best_effort_overage_is_evictable(self):
        """What B holds *above* its reservation is fair game for A."""
        c = SharedTileCache(100, {"a": 30, "b": 50})
        for i in range(7):  # 70 elements: 50 reserved + 20 best-effort
            assert c.insert("b", "B", R(100 * i, 100 * i + 9))
        assert c.usage("b") == 70
        for i in range(10):
            c.insert("a", "A", R(100 * i, 100 * i + 9))
        assert c.usage("b") == 50  # trimmed to the reservation, not below
        assert c.tenant_stats["b"].evicted_by_others == 2
        # a may hold its reservation plus the whole common pool
        assert c.usage("a") == c.limit("a") == 50

    def test_insert_declined_when_no_legal_victim(self):
        """With everyone at reservation and no common pool, a full
        cache declines rather than violate isolation."""
        c = SharedTileCache(100, {"a": 50, "b": 50})
        for i in range(5):
            assert c.insert("b", "B", R(100 * i, 100 * i + 9))
        for i in range(5):
            assert c.insert("a", "A", R(100 * i, 100 * i + 9))
        # a is at its limit (50): inserting more must evict a's own
        assert c.insert("a", "A", R(1000, 1009))
        assert c.usage("a") == 50 and c.usage("b") == 50


class TestReporting:
    def test_summary_dict_shape(self):
        c = SharedTileCache(100, {"a": 40})
        c.insert("a", "A", R(0, 9), cost_s=0.1)
        c.lookup("a", "A", R(0, 9))
        s = c.summary_dict()
        assert s["budget_elements"] == 100
        assert s["in_use_elements"] == 10
        assert s["hits"] == 1
        assert s["tenants"]["a"]["usage"] == 10
        assert s["tenants"]["a"]["saved_io_s"] == pytest.approx(0.1)

    def test_publish_metrics(self):
        from repro.obs import MetricsRegistry

        c = SharedTileCache(100, {"a": 40})
        c.insert("a", "A", R(0, 9))
        reg = MetricsRegistry()
        c.publish_metrics(reg)
        d = reg.to_dict()
        assert any(k.startswith("serve.cache") for k in d)


class TestEvictionsVsInvalidations:
    def test_a_write_invalidates_without_evicting(self):
        """A written region drops the tenant's overlapping tiles; only
        making room is an eviction, so the pool's count is the sum of
        its tenants' counts."""
        c = SharedTileCache(40, {"a": 20, "b": 20})
        for i in range(3):  # a's third tile evicts its own first
            assert c.insert("a", "A", R(10 * i, 10 * i + 9))
        assert c.insert("b", "A", R(0, 9))
        assert c.evictions == 1
        dropped = c.invalidate("a", "A", R(15, 24))  # both of a's tiles
        assert dropped == 2
        assert c.usage("a") == 0 and c.in_use == c.usage("b") == 10
        assert c.invalidate("a", "A", R(15, 24)) == 0
        assert c.evictions == 1 == sum(
            s.evictions for s in c.tenant_stats.values()
        )
        assert c.summary_dict()["evictions"] == 1

    def test_the_pool_is_lru_by_construction(self):
        with pytest.raises(TypeError):
            SharedTileCache(100, {"a": 40}, policy="lfu")
