"""The numbers a shared-cache replay serves, pinned exactly.

The scenario has the shape of perfbench's ``serve_cached`` at seed 7:
four tenants under WFQ, each submitting ``adi``/1, ``trans``/1,
``trans``/2 and ``mxm``/1 nodes at n = 16 into a 4096-element shared
tile cache with ``budget // 8`` reserved per tenant.  Every value below
was recorded before the cache's victim search and overlap queries were
answered from indexes instead of walks; how the cache finds its victim
may change, which victim it finds may not.
"""

import random

import pytest

from repro.serve import (
    ClusterProfile,
    JobSpec,
    ServePolicy,
    TenantCacheStats,
    TenantConfig,
    WorkloadScript,
    serve_script,
)

BUDGET = 4096
JOBS = (("adi", 1), ("trans", 1), ("trans", 2), ("mxm", 1))


def scenario(seed=7):
    """The seed draws tenant weights and arrival gaps, as perfbench does."""
    rng = random.Random(seed)
    weights = [1.0, 2.0, 1.0, 2.0]
    rng.shuffle(weights)
    tenants = tuple(
        TenantConfig(f"tenant{i}", weight=w, cache_quota_elements=BUDGET // 8)
        for i, w in enumerate(weights)
    )
    jobs = []
    for t in tenants:
        arrival = 0.0
        for code, n_nodes in JOBS:
            jobs.append(JobSpec(
                tenant=t.name, workload=code, version="c-opt", n=16,
                n_nodes=n_nodes, arrival_s=arrival,
            ))
            arrival += rng.uniform(0.0, 2.0)
    jobs.sort(key=lambda j: (j.arrival_s, j.tenant))
    profile = ClusterProfile(
        n_compute_nodes=4, tenants=tenants, cache_budget_elements=BUDGET
    )
    return profile, WorkloadScript(seed=seed, jobs=tuple(jobs))


@pytest.fixture(scope="module")
def served():
    profile, script = scenario()
    return serve_script(profile, script, ServePolicy(fairness="wfq"))


def test_pool_counters(served):
    cache = served.cache
    assert (cache.hits, cache.misses, cache.evictions) == (3900, 15668, 7832)
    assert cache.in_use == 4080


def test_makespan(served):
    assert served.makespan_s == 169.97592135327457


def test_tenant_cache_stats(served):
    cache = served.cache
    assert cache.tenant_stats == {
        "tenant0": TenantCacheStats(
            hits=982, misses=3910, insertions=3910, rejected=0,
            evictions=2219, evicted_by_others=1331,
            saved_io_s=14.766810666666483,
        ),
        "tenant1": TenantCacheStats(
            hits=974, misses=3918, insertions=3918, rejected=0,
            evictions=2227, evicted_by_others=1339,
            saved_io_s=14.64612799999982,
        ),
        "tenant2": TenantCacheStats(
            hits=970, misses=3922, insertions=3922, rejected=0,
            evictions=1703, evicted_by_others=810,
            saved_io_s=14.585786666666488,
        ),
        "tenant3": TenantCacheStats(
            hits=974, misses=3918, insertions=3918, rejected=0,
            evictions=1683, evicted_by_others=679,
            saved_io_s=14.64612799999982,
        ),
    }
    assert [cache.usage(t) for t in sorted(cache.quotas)] == [
        512, 512, 1520, 1536,
    ]


def test_per_job_hits(served):
    assert [j.cache_hits for j in served.jobs] == [
        250, 250, 250, 250, 0, 0, 0, 0, 4, 4, 720, 720, 0, 12, 720, 720,
    ]
