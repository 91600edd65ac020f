import numpy as np
import pytest

from repro.cache import CacheConfig, TileCache, intersect_slices, regions_overlap
from repro.runtime.memory import MemoryManager


def R(*bounds):
    """Region literal: R((0, 3), (0, 3))."""
    return tuple(bounds)


class TestRegionGeometry:
    def test_overlap_and_disjoint(self):
        assert regions_overlap(R((0, 3)), R((3, 5)))
        assert not regions_overlap(R((0, 3)), R((4, 5)))
        assert regions_overlap(R((0, 3), (0, 3)), R((2, 5), (1, 1)))
        assert not regions_overlap(R((0, 3), (0, 3)), R((2, 5), (4, 6)))

    def test_intersect_slices_frames(self):
        pair = intersect_slices(R((2, 5), (0, 3)), R((4, 9), (2, 7)))
        assert pair is not None
        dst, src = pair
        assert dst == (slice(2, 4), slice(2, 4))
        assert src == (slice(0, 2), slice(0, 2))

    def test_intersect_slices_disjoint(self):
        assert intersect_slices(R((0, 1)), R((5, 6))) is None


class TestCacheConfig:
    def test_defaults_enabled_lru_write_back(self):
        cfg = CacheConfig()
        assert cfg.policy == "lru" and cfg.write_back
        assert not hasattr(cfg, "enabled")  # "off" is cache=None

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(write_mode="write-around")
        with pytest.raises(ValueError):
            CacheConfig(budget_fraction=1.5)
        with pytest.raises(ValueError):
            CacheConfig(budget_elements=0)
        with pytest.raises(ValueError):
            CacheConfig(prefetch_depth=0)

    def test_resolve_budget(self):
        assert CacheConfig(budget_fraction=0.25).resolve_budget(100) == 25
        assert CacheConfig(budget_elements=7).resolve_budget(100) == 7


class TestHitMissEviction:
    def test_counters(self):
        c = TileCache(8)
        r = R((0, 3))
        assert c.lookup("A", r) is None
        c.insert("A", r, None)
        assert c.lookup("A", r) is not None
        assert (c.metrics.hits, c.metrics.misses) == (1, 1)
        assert c.metrics.hit_rate == 0.5

    def test_peek_does_not_count(self):
        c = TileCache(8)
        c.insert("A", R((0, 3)), None)
        assert c.peek("A", R((0, 3))) is not None
        assert c.peek("A", R((4, 7))) is None
        assert c.metrics.accesses == 0

    def test_eviction_on_budget(self):
        c = TileCache(8)
        c.insert("A", R((0, 3)), None)
        c.insert("B", R((0, 3)), None)
        accepted, writeback = c.insert("C", R((0, 3)), None)
        assert accepted and writeback == []
        assert len(c) == 2
        assert c.metrics.evictions == 1
        # LRU: A was the oldest
        assert c.peek("A", R((0, 3))) is None

    def test_dirty_eviction_returned_for_writeback(self):
        c = TileCache(4)
        c.insert("A", R((0, 3)), None, dirty=True)
        _, writeback = c.insert("B", R((0, 3)), None)
        assert [e.key for e in writeback] == [("A", R((0, 3)))]
        assert c.metrics.dirty_evictions == 1

    def test_oversized_region_rejected(self):
        c = TileCache(4)
        with pytest.raises(ValueError):
            c.insert("A", R((0, 7)), None)
        assert not c.fits(R((0, 7))) and c.fits(R((0, 3)))

    def test_data_is_copied_both_ways(self):
        c = TileCache(16)
        src = np.arange(4.0)
        c.insert("A", R((0, 3)), src)
        src[0] = 99.0
        entry = c.lookup("A", R((0, 3)))
        assert entry.data[0] == 0.0

    def test_exact_key_update_in_place(self):
        c = TileCache(8)
        c.insert("A", R((0, 3)), np.zeros(4), dirty=True)
        accepted, _ = c.insert("A", R((0, 3)), np.ones(4))
        assert accepted and len(c) == 1
        entry = c.peek("A", R((0, 3)))
        assert entry.dirty  # dirtiness is sticky until flushed
        np.testing.assert_array_equal(entry.data, np.ones(4))


class TestCoherence:
    def test_flush_overlapping_cleans_and_returns(self):
        c = TileCache(16)
        c.insert("A", R((0, 3)), None, dirty=True)
        c.insert("A", R((8, 11)), None, dirty=True)
        out = c.flush_overlapping("A", R((2, 5)))
        assert [e.region for e in out] == [R((0, 3))]
        assert not c.peek("A", R((0, 3))).dirty
        assert c.peek("A", R((8, 11))).dirty
        assert c.metrics.flushed_tiles == 1

    def test_flush_exclude_exact(self):
        c = TileCache(16)
        c.insert("A", R((0, 3)), None, dirty=True)
        assert c.flush_overlapping("A", R((0, 3)), exclude_exact=True) == []

    def test_invalidate_overlapping_drops(self):
        c = TileCache(16)
        c.insert("A", R((0, 3)), None, dirty=True)
        c.insert("A", R((4, 7)), None)
        dropped = c.invalidate_overlapping("A", R((1, 5)))
        assert [(e.region, e.dirty) for e in dropped] == [
            (R((0, 3)), True), (R((4, 7)), False),
        ]
        assert len(c) == 0
        assert c.metrics.evictions == 0  # coherence drops are not evictions

    def test_flush_all_keeps_residency(self):
        c = TileCache(16)
        c.insert("A", R((0, 3)), None, dirty=True)
        c.insert("B", R((0, 3)), None)
        out = c.flush_all()
        assert [e.name for e in out] == ["A"]
        assert len(c) == 2 and not any(e.dirty for e in c)

    def test_clear_returns_dirty(self):
        c = TileCache(16)
        c.insert("A", R((0, 3)), None, dirty=True)
        c.insert("B", R((0, 3)), None)
        assert [e.name for e in c.clear()] == ["A"]
        assert len(c) == 0


class TestCoverage:
    def test_no_overlap_is_none(self):
        c = TileCache(16)
        c.insert("A", R((0, 3)), None)
        assert c.coverage("B", R((0, 3))) is None
        assert c.coverage("A", R((8, 11))) is None

    def test_mask_and_fill(self):
        c = TileCache(64)
        c.insert("A", R((0, 3), (0, 3)), np.full((4, 4), 7.0))
        cov = c.coverage("A", R((2, 5), (0, 3)))
        assert cov is not None
        mask, entries = cov
        assert mask.shape == (4, 4)
        assert mask[:2].all() and not mask[2:].any()
        out = np.zeros((4, 4))
        c.fill_from(out, R((2, 5), (0, 3)), entries)
        assert (out[:2] == 7.0).all() and (out[2:] == 0.0).all()

    def test_multiple_contributors_union(self):
        c = TileCache(64)
        c.insert("A", R((0, 3)), np.arange(4.0))
        c.insert("A", R((6, 9)), np.arange(4.0) + 10)
        mask, entries = c.coverage("A", R((2, 7)))
        np.testing.assert_array_equal(
            mask, [True, True, False, False, True, True]
        )
        out = np.zeros(6)
        c.fill_from(out, R((2, 7)), entries)
        np.testing.assert_array_equal(out, [2, 3, 0, 0, 10, 11])


class TestMemoryMirroring:
    def test_residency_is_allocated_and_freed(self):
        mm = MemoryManager(100)
        c = TileCache(8, memory=mm)
        c.insert("A", R((0, 3)), None)
        assert mm.in_use == 4
        c.insert("B", R((0, 3)), None)
        assert mm.in_use == 8
        c.insert("C", R((0, 3)), None)  # evicts A
        assert mm.in_use == 8
        c.clear()
        assert mm.in_use == 0

    def test_shared_budget_squeeze_declines(self):
        # cache would accept, but the shared MemoryManager is nearly
        # full (in-flight compute tiles): evict what it can, then decline
        mm = MemoryManager(10)
        mm.allocate(7)  # someone else's compute tile
        c = TileCache(8, memory=mm)
        accepted, _ = c.insert("A", R((0, 2)), None)
        assert accepted
        accepted, _ = c.insert("B", R((0, 4)), None)  # 5 > 10-7, even after evicting A
        assert not accepted
        assert len(c) == 0 and mm.in_use == 7


class TestBudgetGuards:
    """Named validation of cache budgets (CacheBudgetError): a zero or
    negative budget silently disables caching — or un-partitions a
    shared cache's tenant isolation — so it is rejected up front."""

    def test_zero_and_negative_budgets_rejected(self):
        from repro.cache import CacheBudgetError

        for bad in (0, -1, -1000):
            with pytest.raises(CacheBudgetError):
                TileCache(bad)

    def test_non_numeric_budget_rejected(self):
        from repro.cache import CacheBudgetError

        with pytest.raises(CacheBudgetError, match="element count"):
            TileCache("lots")

    def test_numpy_integer_budget_accepted(self):
        c = TileCache(np.int64(8))
        assert c.budget == 8

    def test_error_is_a_value_error(self):
        from repro.cache import CacheBudgetError

        assert issubclass(CacheBudgetError, ValueError)
        with pytest.raises(ValueError):
            TileCache(0)


class TestEvictEntry:
    def test_clean_eviction_counts_and_frees(self):
        c = TileCache(16)
        c.insert("A", R((0, 3)), None)
        returned = c.evict_entry("A", R((0, 3)))
        assert returned is None  # clean: no write-back owed
        assert c.metrics.evictions == 1
        assert c.metrics.dirty_evictions == 0
        assert c.peek("A", R((0, 3))) is None

    def test_dirty_eviction_returns_entry_for_writeback(self):
        c = TileCache(16)
        c.insert("A", R((0, 3)), None, dirty=True)
        returned = c.evict_entry("A", R((0, 3)))
        assert returned is not None and returned.dirty
        assert c.metrics.dirty_evictions == 1

    def test_missing_entry_is_a_silent_noop(self):
        c = TileCache(16)
        assert c.evict_entry("A", R((0, 3))) is None
        assert c.metrics.evictions == 0

    def test_memory_released(self):
        mm = MemoryManager(32)
        c = TileCache(16, memory=mm)
        c.insert("A", R((0, 3)), None)
        assert mm.in_use == 4
        c.evict_entry("A", R((0, 3)))
        assert mm.in_use == 0
