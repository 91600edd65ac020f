"""The tile cache's dict order *is* its recency, its occupancy a counter.

Both facts used to be written down a second way: every entry carried a
``last_access`` stamp from a private clock and the victim was a ``min``
over all entries through ``(key, last_access)`` tie-break tuples;
``in_use`` was a ``sum`` over all entries; and ``SharedTileCache`` built
a candidate *list* over the whole pool for every eviction.  That older
mechanism is kept here as the reference model (:class:`RefCache`,
:class:`RefShared`) and random operation sequences are run through both
side by side: after every operation the resident keys, the victim the
policy would choose, occupancy and the eviction counters agree, and the
cache iterates in ascending reference stamp.  The indexes the queries
read instead of that order — ``TileCache``'s per array name,
``SharedTileCache``'s per tenant — must list exactly the order filtered
to their name or tenant.

One deliberate difference is written into the reference: the entries one
``coverage`` call touches are re-stamped in ascending stamp order (a
partial hit keeps its contributors' relative recency); the old code
walked them in first-insertion order, which the cache no longer records.
"""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import POLICIES, TileCache, regions_overlap
from repro.runtime.memory import MemoryManager
from repro.runtime.ooc_array import region_size
from repro.serve import SharedTileCache

# -- the reference: clock, stamps, min over everything, sum ----------------

_RANK = {
    "lru": lambda e: e.last_access,
    "lfu": lambda e: (e.accesses, e.last_access),
    "cost": lambda e: (e.priority, e.last_access),
}


class RefCache:
    """The stamped mechanism: entries in first-insertion order, recency
    an explicit clock, the victim a ``min`` over all of them."""

    def __init__(self, budget, policy, memory_budget=None):
        self.budget, self.policy = budget, policy
        self.memory_budget = memory_budget
        self.held = 0  # elements of in-flight compute tiles
        self.entries = {}
        self.clock = 0
        self.aging = 0.0  # the cost policy's own clock
        self.evictions = self.dirty_evictions = 0

    @property
    def in_use(self):
        return sum(e.size for e in self.entries.values())

    def _touch(self, e, count=True):
        e.accesses += count
        self.clock += 1
        e.last_access = self.clock
        e.priority = self.aging + e.accesses * e.cost_s / max(1, e.size)

    def victim(self, candidates=None):
        if candidates is None:
            candidates = self.entries.values()
        return min(candidates, key=_RANK[self.policy], default=None)

    def _need_room(self, size):
        if self.in_use + size > self.budget:
            return True
        return (
            self.memory_budget is not None
            and self.held + self.in_use + size > self.memory_budget
        )

    def evict(self, e):
        self.evictions += 1
        self.dirty_evictions += e.dirty
        del self.entries[e.key]
        return e.key if e.dirty else None

    def insert(self, key, dirty=False, cost_s=0.0):
        size = region_size(key[1])
        e = self.entries.get(key)
        if e is not None:
            e.dirty = e.dirty or dirty
            self._touch(e)
            return True, []
        writeback = []
        while self.entries and self._need_room(size):
            v = self.victim()
            self.aging = v.priority if self.policy == "cost" else self.aging
            if self.evict(v) is not None:
                writeback.append(v.key)
        if self._need_room(size):
            return False, writeback
        e = SimpleNamespace(
            key=key, size=size, dirty=dirty, accesses=1, cost_s=cost_s
        )
        self._touch(e, count=False)
        self.entries[key] = e
        return True, writeback

    def lookup(self, key):
        e = self.entries.get(key)
        if e is not None:
            self._touch(e)
        return e is not None

    def overlapping(self, name, region):
        return [
            e
            for e in self.entries.values()
            if e.key[0] == name and regions_overlap(e.key[1], region)
        ]

    def coverage(self, name, region):
        touching = sorted(
            self.overlapping(name, region), key=lambda e: e.last_access
        )
        for e in touching:
            self._touch(e)
        return [e.key for e in touching]

    def invalidate_overlapping(self, name, region, exclude_exact):
        victims = [
            e
            for e in self.overlapping(name, region)
            if not (exclude_exact and e.key[1] == region)
        ]
        for e in victims:
            del self.entries[e.key]
        return [(e.key, e.dirty) for e in victims]

    def evict_entry(self, key):
        e = self.entries.get(key)
        return None if e is None else self.evict(e)

    def flush_all(self):
        out = [e for e in self.entries.values() if e.dirty]
        for e in out:
            e.dirty = False
        return [e.key for e in out]


# -- (a) TileCache ----------------------------------------------------------

#: a small pool of 1-D regions, so refreshes, hits and overlaps are common
_regions = st.sampled_from(
    [(0, 3), (2, 5), (4, 7), (0, 1), (3, 8), (5, 5)]
).map(lambda r: (r,))
_keys = st.tuples(st.sampled_from("AAB"), _regions)
_insert = st.tuples(
    st.just("insert"), _keys, st.booleans(),
    st.sampled_from([0.0, 0.25, 0.5, 2.0]),
)
_ops = st.one_of(
    _insert,
    _insert,
    st.tuples(st.just("lookup"), _keys),
    st.tuples(st.just("lookup"), _keys),
    st.tuples(st.just("coverage"), _keys),
    st.tuples(st.just("coverage"), _keys),
    st.tuples(st.just("invalidate"), _keys, st.booleans()),
    st.tuples(st.just("evict"), _keys),
    st.tuples(st.just("flush_all")),
    # an in-flight compute tile squeezing the shared MemoryManager
    st.tuples(st.just("hold"), st.integers(1, 12)),
    st.tuples(st.just("release")),
)


def _peek_victim(cache):
    """The policy's choice, without letting the peek age the cost clock."""
    aging = getattr(cache.policy, "_clock", None)
    v = cache.victim()
    if aging is not None:
        cache.policy._clock = aging
    return None if v is None else v.key


def _keys_of(entries):
    return sorted(e.key for e in entries)


_A03, _A25 = ("A", ((0, 3),)), ("A", ((2, 5),))


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=80, deadline=None)
@given(
    budget=st.integers(6, 40),
    slack=st.integers(0, 12),
    ops=st.lists(_ops, min_size=20, max_size=60),
)
# a partial hit keeps its contributors' relative recency
@example(budget=40, slack=0, ops=[
    ("insert", _A03, False, 0.0), ("insert", _A25, True, 0.0),
    ("lookup", _A03), ("coverage", _A25), ("flush_all",),
])
# equal counts / priorities: the least recent of the minima goes
@example(budget=8, slack=0, ops=[
    ("insert", _A03, False, 0.5), ("insert", _A25, False, 0.5),
    ("lookup", _A03), ("lookup", _A25), ("insert", ("B", ((4, 7),)), True, 0.5),
])
def test_tile_cache_matches_the_stamped_reference(policy, budget, slack, ops):
    memory = MemoryManager(budget + slack)
    cache = TileCache(budget, policy, memory=memory)
    ref = RefCache(budget, policy, memory_budget=budget + slack)
    for op, *args in ops:
        if op == "insert":
            key, dirty, cost_s = args
            accepted, writeback = cache.insert(
                *key, None, dirty=dirty, cost_s=cost_s
            )
            assert (accepted, [e.key for e in writeback]) == ref.insert(
                key, dirty, cost_s
            )
        elif op == "lookup":
            assert (cache.lookup(*args[0]) is not None) == ref.lookup(args[0])
        elif op == "coverage":
            got = cache.coverage(*args[0])
            assert _keys_of(got[1] if got else []) == sorted(
                ref.coverage(*args[0])
            )
        elif op == "invalidate":
            key, exclude = args
            got = cache.invalidate_overlapping(*key, exclude_exact=exclude)
            assert sorted((e.key, e.dirty) for e in got) == sorted(
                ref.invalidate_overlapping(*key, exclude)
            )
        elif op == "evict":
            got = cache.evict_entry(*args[0])
            assert (got and got.key) == ref.evict_entry(args[0])
        elif op == "flush_all":
            assert _keys_of(cache.flush_all()) == sorted(ref.flush_all())
        elif op == "hold":
            if memory.in_use + args[0] <= memory.budget:
                memory.allocate(args[0])
                ref.held += args[0]
        else:
            memory.free(ref.held)
            ref.held = 0
        # iteration order is recency: ascending reference stamp
        assert [e.key for e in cache] == sorted(
            ref.entries, key=lambda k: ref.entries[k].last_access
        )
        # each name's index is that order filtered to the name
        by_name = {}
        for e in cache:
            by_name.setdefault(e.name, []).append((e.region, id(e)))
        assert {
            n: [(r, id(e)) for r, e in d.items()]
            for n, d in cache._by_name.items()
            if d
        } == by_name
        want = ref.victim()
        assert _peek_victim(cache) == (want and want.key)
        assert cache.in_use == ref.in_use
        assert memory.in_use == ref.held + ref.in_use
        assert cache.metrics.evictions == ref.evictions
        assert cache.metrics.dirty_evictions == ref.dirty_evictions
        assert {e.key: (e.dirty, e.accesses) for e in cache} == {
            k: (e.dirty, e.accesses) for k, e in ref.entries.items()
        }


# -- (b) SharedTileCache ----------------------------------------------------


class RefShared:
    """Quota isolation the list-scanning way: every eviction rebuilds the
    legal candidate list over the whole pool and takes its ``min``."""

    def __init__(self, budget, quotas):
        self.pool = RefCache(budget, "lru")
        self.quotas = dict(quotas)
        self.usage = {t: 0 for t in quotas}
        self.stats = {
            t: dict.fromkeys(
                ("hits", "misses", "insertions", "rejected", "evictions",
                 "evicted_by_others"), 0,
            )
            for t in quotas
        }

    def limit(self, tenant):
        return self.pool.budget - sum(self.quotas.values()) + self.quotas[tenant]

    def lookup(self, tenant, name, region):
        hit = self.pool.lookup(((tenant, name), region))
        self.stats[tenant]["hits" if hit else "misses"] += 1
        return hit

    def _evictable(self, by, e):
        owner = e.key[0][0]
        return owner == by or self.usage[owner] - e.size >= self.quotas[owner]

    def _make_room(self, tenant, size):
        pool = self.pool
        while True:
            over_pool = pool.in_use + size > pool.budget
            over_own = self.usage[tenant] + size > self.limit(tenant)
            if not over_pool and not over_own:
                return True
            if over_own:
                candidates = [
                    e for e in pool.entries.values() if e.key[0][0] == tenant
                ]
            else:
                candidates = [
                    e for e in pool.entries.values()
                    if self._evictable(tenant, e)
                ]
            if not candidates:
                return False
            victim = pool.victim(candidates)
            owner = victim.key[0][0]
            pool.evict(victim)
            self.usage[owner] -= victim.size
            self.stats[owner]["evictions"] += 1
            self.stats[owner]["evicted_by_others"] += owner != tenant

    def insert(self, tenant, name, region):
        key, size = ((tenant, name), region), region_size(region)
        if size > self.limit(tenant):
            self.stats[tenant]["rejected"] += 1
            return False
        if key in self.pool.entries:
            return self.pool.insert(key)[0]
        if not self._make_room(tenant, size):
            self.stats[tenant]["rejected"] += 1
            return False
        assert self.pool.insert(key) == (True, [])
        self.usage[tenant] += size
        self.stats[tenant]["insertions"] += 1
        return True

    def invalidate(self, tenant, name, region):
        victims = self.pool.overlapping((tenant, name), region)
        for e in victims:
            del self.pool.entries[e.key]
            self.usage[tenant] -= e.size
        return len(victims)


#: the shared pool's tiles also come in sizes from 1 to 12 elements, so a
#: tenant's slack above its reservation admits some entries and not others
_sized_regions = st.builds(
    lambda lo, size: ((lo, lo + size - 1),),
    st.integers(0, 8), st.integers(1, 12),
)


@st.composite
def _storms(draw):
    tenants = [f"t{i}" for i in range(draw(st.integers(2, 4)))]
    budget = draw(st.integers(12, 60))
    quotas, left = {}, budget
    for t in tenants:
        quotas[t] = draw(st.integers(0, left // 2))
        left -= quotas[t]
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(tenants),
            st.sampled_from(["lookup", "insert", "insert", "invalidate"]),
            st.sampled_from("AB"),
            st.one_of(_regions, _sized_regions),
        ),
        min_size=20, max_size=80,
    ))
    return budget, quotas, ops


def _owner(entry):
    return entry.name.split("\x00", 1)[0]


@settings(max_examples=120, deadline=None)
@given(_storms())
# t1's least recent entry (6 elements) exceeds its slack of 5 while its
# newer one (1 element) fits: that one goes before t0's own older tile
@example((12, {"t0": 0, "t1": 2}, [
    ("t1", "insert", "A", ((3, 8),)), ("t1", "insert", "A", ((5, 5),)),
    ("t0", "insert", "A", ((0, 3),)), ("t0", "insert", "A", ((4, 7),)),
]))
# t0 is over its own limit of 10: it passes over t1's fitting, older
# (5, 5) to shrink itself first, and only then, merely over the pool,
# takes it
@example((14, {"t0": 0, "t1": 4}, [
    ("t1", "insert", "A", ((5, 5),)), ("t1", "insert", "A", ((0, 3),)),
    ("t0", "insert", "A", ((0, 3),)), ("t0", "insert", "A", ((4, 7),)),
    ("t0", "insert", "A", ((3, 8),)),
]))
def test_shared_cache_matches_the_candidate_list_reference(storm):
    budget, quotas, ops = storm
    cache, ref = SharedTileCache(budget, quotas), RefShared(budget, quotas)
    for tenant, op, name, region in ops:
        if op == "lookup":
            got = cache.lookup(tenant, name, region) is not None
        else:
            got = getattr(cache, op)(tenant, name, region)
        assert got == getattr(ref, op)(tenant, name, region)
        for t in quotas:
            stats = cache.tenant_stats[t].to_dict()
            assert {k: stats[k] for k in ref.stats[t]} == ref.stats[t]
            assert cache.usage(t) == ref.usage[t]
        assert cache.in_use == ref.pool.in_use == sum(ref.usage.values())
        assert [(e.name, e.region) for e in cache.entries()] == [
            (f"{owner}\x00{name}", region)
            for (owner, name), region in sorted(
                ref.pool.entries,
                key=lambda k: ref.pool.entries[k].last_access,
            )
        ]
        # a write drops tiles without evicting them: the pool's count is
        # its tenants' by construction
        assert cache.evictions == sum(
            s["evictions"] for s in ref.stats.values()
        )
        # each tenant's index is the pool's order filtered to the tenant,
        # and the sequence numbers sort the whole pool into that order
        pool = list(cache.entries())
        for t in quotas:
            assert [
                (key, size) for key, (_, size) in cache._recency[t].items()
            ] == [(e.key, e.size) for e in pool if _owner(e) == t]
        seq = {
            key: s
            for index in cache._recency.values()
            for key, (s, _) in index.items()
        }
        assert sorted(seq, key=seq.get) == [e.key for e in pool]
