import pytest

from repro.collective.sim import event_makespan
from repro.faults import FaultConfig, FaultPlan, ResiliencePolicy
from repro.obs import Observability, _payload_report
from repro.optimizer import build_version
from repro.parallel import run_version_parallel
from repro.runtime import IOStats, MachineParams
from repro.serve import (
    ClusterProfile,
    JobScheduler,
    JobSpec,
    ServeConfigError,
    ServePolicy,
    TenantConfig,
    WorkloadScript,
    serve_script,
)
from repro.workloads import build_workload

N = 12
PARAMS = MachineParams()


def profile(n_nodes=2, cache=0, tenants=("a", "b"), **tenant_kw):
    quota = cache // (2 * len(tenants)) if cache else 0
    return ClusterProfile(
        n_compute_nodes=n_nodes,
        params=PARAMS,
        tenants=tuple(
            TenantConfig(t, cache_quota_elements=quota, **tenant_kw)
            for t in tenants
        ),
        cache_budget_elements=cache,
    )


def script(*jobs, seed=0):
    return WorkloadScript(seed=seed, jobs=tuple(jobs))


def standalone(workload, n_nodes=1, n=N, version="c-opt", **kw):
    cfg = build_version(
        version, build_workload(workload, n), params=PARAMS, n_nodes=n_nodes
    )
    return run_version_parallel(cfg, n_nodes, params=PARAMS, **kw)


class TestLifecycle:
    def test_states_in_order(self):
        res = serve_script(
            profile(), script(JobSpec("a", "trans", n=N))
        )
        job = res.jobs[0]
        assert [s for s, _ in job.history] == [
            "queued", "admitted", "optimizing", "executing", "done",
        ]
        assert job.admitted_s == 0.0
        assert job.finish_s == pytest.approx(res.makespan_s)
        assert job.stats is not None and job.stats.calls > 0

    def test_unknown_tenant_rejected_up_front(self):
        with pytest.raises(ServeConfigError, match="unknown tenant"):
            serve_script(profile(), script(JobSpec("zz", "trans", n=N)))

    def test_schedule_log_events(self):
        res = serve_script(profile(), script(JobSpec("a", "trans", n=N)))
        assert [e for _, e, _ in res.schedule] == ["submit", "admit", "done"]


class TestDeterminism:
    def test_identical_schedules_and_stats(self):
        jobs = [
            JobSpec("a", "trans", n=N),
            JobSpec("b", "mxm", n=N, arrival_s=0.001),
            JobSpec("a", "trans", n=N, arrival_s=0.5),
            JobSpec("b", "trans", n=N, arrival_s=0.5),
        ]
        r1 = serve_script(profile(), script(*jobs))
        r2 = serve_script(profile(), script(*jobs))
        assert r1.signature() == r2.signature()
        assert r1.schedule == r2.schedule
        assert r1.summary_dict() == r2.summary_dict()
        assert r1.makespan_s == r2.makespan_s

    def test_cached_run_deterministic(self):
        jobs = [
            JobSpec("a", "trans", n=N),
            JobSpec("a", "trans", n=N, arrival_s=0.001),
        ]
        p = profile(n_nodes=1, cache=4096)
        r1 = serve_script(p, script(*jobs))
        r2 = serve_script(p, script(*jobs))
        assert r1.signature() == r2.signature()
        assert r1.cache.summary_dict() == r2.cache.summary_dict()


class TestExactness:
    def test_single_tenant_stats_match_standalone(self):
        """A served job's folded IOStats are the standalone parallel
        run's, field for field — serving re-prices time, not I/O."""
        res = serve_script(
            profile(), script(JobSpec("a", "trans", n=N, n_nodes=2))
        )
        ref = standalone("trans", n_nodes=2)
        assert res.jobs[0].stats == ref.total_stats
        assert res.total_stats == ref.total_stats

    def test_lone_job_reproduces_event_simulation(self):
        """One job on an idle cluster replays the standalone event-sim
        makespan: persistent queues start empty, so the serve engine's
        arithmetic is the single-run simulator's."""
        res = serve_script(
            profile(), script(JobSpec("a", "trans", n=N, n_nodes=2))
        )
        ref = standalone("trans", n_nodes=2, trace=True)
        sim = event_makespan(PARAMS, ref.node_results)
        assert res.makespan_s == pytest.approx(sim.makespan_s, rel=1e-12)

    def test_tenant_summary_is_exact_fold(self):
        jobs = [
            JobSpec("a", "trans", n=N),
            JobSpec("a", "mxm", n=N, arrival_s=0.1),
            JobSpec("b", "trans", n=N, arrival_s=0.2),
        ]
        res = serve_script(profile(), script(*jobs))
        for name, summary in res.tenants.items():
            fold = IOStats.fold(
                j.stats
                for j in res.jobs
                if j.spec.tenant == name and j.stats is not None
            )
            assert summary.stats == fold


class TestAdmissionControl:
    def test_nodes_serialize_jobs(self):
        res = serve_script(
            profile(n_nodes=1),
            script(
                JobSpec("a", "trans", n=N),
                JobSpec("a", "trans", n=N, arrival_s=0.001),
            ),
        )
        j0, j1 = res.jobs
        assert j1.admitted_s == pytest.approx(j0.finish_s)
        assert j1.queue_delay_s > 0

    def test_max_inflight_serializes(self):
        res = serve_script(
            profile(n_nodes=2, tenants=("a",), max_inflight=1),
            script(
                JobSpec("a", "trans", n=N),
                JobSpec("a", "trans", n=N, arrival_s=0.001),
            ),
        )
        j0, j1 = res.jobs
        assert j1.admitted_s == pytest.approx(j0.finish_s)

    def test_impossible_node_count_rejected(self):
        res = serve_script(
            profile(n_nodes=2), script(JobSpec("a", "trans", n=N, n_nodes=4))
        )
        job = res.jobs[0]
        assert job.state == "failed"
        assert "nodes" in job.error
        assert res.tenants["a"].rejected == 1
        assert res.tenants["a"].failed == 1

    def test_memory_budget_rejects_oversized_job(self):
        res = serve_script(
            profile(tenants=("a", "b"), memory_budget_elements=32),
            script(JobSpec("a", "trans", n=N)),
        )
        job = res.jobs[0]
        assert job.state == "failed"
        assert "memory" in job.error

    def test_unknown_workload_rejected_with_reason(self):
        res = serve_script(
            profile(), script(JobSpec("a", "not-a-workload", n=N))
        )
        assert res.jobs[0].state == "failed"
        assert "failed to build" in res.jobs[0].error


class TestFairness:
    def burst(self, fairness):
        """Tenant a bursts three jobs at t=0; tenant b's single job
        arrives just after.  One node, so admission order is the whole
        game."""
        jobs = [
            JobSpec("a", "trans", n=N),
            JobSpec("a", "trans", n=N),
            JobSpec("a", "trans", n=N),
            JobSpec("b", "trans", n=N, arrival_s=0.001),
        ]
        return serve_script(
            profile(n_nodes=1),
            script(*jobs),
            ServePolicy(fairness=fairness),
        )

    def test_fifo_head_of_line_blocks_tenant_b(self):
        fifo = self.burst("fifo")
        wfq = self.burst("wfq")
        b_fifo = fifo.tenants["b"].max_queue_delay_s
        b_wfq = wfq.tenants["b"].max_queue_delay_s
        # FIFO serves the whole burst first; WFQ interleaves b after
        # one a job, cutting b's worst-case queueing delay
        assert b_wfq < b_fifo
        admits = lambda r: [
            jid for _, e, jid in r.schedule if e == "admit"
        ]
        assert admits(fifo) == [0, 1, 2, 3]
        assert admits(wfq)[1] == 3

    def test_weight_biases_service(self):
        """Double weight ⇒ half the virtual-time charge ⇒ earlier
        re-admission for the heavy tenant."""
        jobs = [
            JobSpec("heavy", "trans", n=N),
            JobSpec("light", "trans", n=N),
            JobSpec("heavy", "trans", n=N),
            JobSpec("light", "trans", n=N),
        ]
        p = ClusterProfile(
            n_compute_nodes=1,
            params=PARAMS,
            tenants=(
                TenantConfig("heavy", weight=100.0),
                TenantConfig("light", weight=1.0),
            ),
        )
        res = serve_script(p, script(*jobs))
        admits = [jid for _, e, jid in res.schedule if e == "admit"]
        # heavy's vtime stays ~0, so both heavy jobs go before light's
        # second job
        assert admits.index(2) < admits.index(3)


class TestFaults:
    def make_calls(self, workload):
        return standalone(workload).total_stats.calls

    def test_crash_looping_tenant_does_not_starve_others(self):
        """An error op scheduled past trans's call count but inside
        adi's fails every adi attempt deterministically; the ok tenant's
        job is admitted and completes with zero queueing."""
        adi_calls = self.make_calls("adi")
        trans_calls = self.make_calls("trans")
        assert trans_calls + 10 < adi_calls, "precondition"
        faults = FaultConfig(
            FaultPlan(error_ops=frozenset({trans_calls + 5})),
            ResiliencePolicy(max_retries=0),
        )
        jobs = [
            JobSpec("flaky", "adi", n=N),
            JobSpec("ok", "trans", n=N),
        ]
        res = JobScheduler(
            profile(n_nodes=1, tenants=("flaky", "ok")),
            ServePolicy(fairness="wfq", max_job_retries=3),
            faults=faults,
        ).run(script(*jobs))
        flaky, ok = res.jobs
        assert flaky.state == "failed"
        assert flaky.attempts == 4  # 1 + 3 retries
        assert res.tenants["flaky"].retries == 3
        assert "fault-injected" in flaky.error
        assert ok.state == "done"
        assert ok.queue_delay_s == pytest.approx(0.0)
        assert res.tenants["ok"].retries == 0

    def test_faulted_run_deterministic(self):
        faults = FaultConfig(
            FaultPlan(seed=9, read_error_rate=0.01),
            ResiliencePolicy(max_retries=0),
        )
        jobs = [
            JobSpec("a", "trans", n=N),
            JobSpec("b", "trans", n=N, arrival_s=0.001),
        ]
        pol = ServePolicy(max_job_retries=2)
        r1 = JobScheduler(profile(), pol, faults=faults).run(script(*jobs))
        r2 = JobScheduler(profile(), pol, faults=faults).run(script(*jobs))
        assert r1.signature() == r2.signature()

    def test_surviving_jobs_carry_fault_counters(self):
        """A retried-but-successful run folds its resilience counters
        into the tenant's stats, exactly."""
        faults = FaultConfig(
            FaultPlan(seed=3, read_error_rate=0.002),
            ResiliencePolicy(max_retries=8),
        )
        res = JobScheduler(
            profile(), faults=faults
        ).run(script(JobSpec("a", "adi", n=N)))
        job = res.jobs[0]
        assert job.state == "done"
        assert job.stats.retries > 0
        assert res.tenants["a"].stats.retries == job.stats.retries


class TestSharedCacheServing:
    def repeat_script(self):
        return script(
            JobSpec("a", "trans", n=N),
            JobSpec("a", "trans", n=N, arrival_s=0.001),
        )

    def test_repeat_job_hits_and_speeds_up(self):
        p_cold = profile(n_nodes=1)
        p_warm = profile(n_nodes=1, cache=8192)
        cold = serve_script(p_cold, self.repeat_script())
        warm = serve_script(p_warm, self.repeat_script())
        assert warm.cache.hits > 0
        assert warm.cache.saved_io_s > 0
        assert warm.jobs[1].cache_hits > 0
        assert warm.makespan_s < cold.makespan_s
        # accounting is untouched: stats identical with and without
        for jc, jw in zip(cold.jobs, warm.jobs):
            assert jc.stats == jw.stats

    def test_summary_carries_cache_section(self):
        res = serve_script(profile(n_nodes=1, cache=8192), self.repeat_script())
        s = res.summary_dict()
        assert s["cache"]["hits"] == res.cache.hits
        assert "tenants" in s["cache"]


class TestObservability:
    def test_report_renders_tenant_section(self):
        obs = Observability()
        res = serve_script(
            profile(),
            script(
                JobSpec("a", "trans", n=N),
                JobSpec("b", "trans", n=N, arrival_s=0.1),
            ),
            obs=obs,
        )
        payload = obs.to_payload()
        assert payload["serve"] == res.summary_dict()
        text = _payload_report(payload)
        assert "serving (repro.serve)" in text
        assert "served makespan" in text
        assert "a" in text and "b" in text

    def test_counters_and_spans(self):
        obs = Observability()
        res = serve_script(
            profile(), script(JobSpec("a", "trans", n=N)), obs=obs
        )
        metrics = obs.metrics.to_dict()
        assert any("serve.jobs_submitted" in k for k in metrics)
        assert any("serve.queue_delay_us" in k for k in metrics)
        # per-tenant virtual-time job span
        names = [s.name for s in obs.tracer.virtual_spans]
        assert any("job 0" in n for n in names)
        assert res.jobs[0].state == "done"

