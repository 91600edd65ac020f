"""The fault subsystem wired through the whole stack.

Three contracts, on the same workloads the obs suite pins (adi/mxm at
N=24, 4 nodes, 4 I/O nodes):

- **off is bit-identical** — ``faults=None`` (and the default of not
  passing ``faults`` at all) produces byte-equal stats lines and
  serialized dicts on all three execution paths;
- **on is deterministic and exact** — the same plan+seed reproduces the
  run bit-for-bit, every failed attempt is retried exactly once per
  ``retries`` counter, and the observability report still cross-checks
  against the folded stats *exactly* under injected faults;
- **the acceptance scenario holds** — a seeded straggler costs the
  no-policy run >=2x and hedged reads recover >=50% of the loss.
"""

import json

import pytest

from dataclasses import replace

from repro.cache import CacheConfig
from repro.engine import OOCExecutor
from repro.experiments.harness import _scaled_params
from repro.faults import (
    FaultConfig,
    FaultPlan,
    ResiliencePolicy,
    TransientIOError,
)
from repro.obs import Observability, report_totals
from repro.optimizer import build_version
from repro.parallel import CollectiveConfig, run_version_parallel
from repro.workloads import build_workload

N = 24
PARAMS = replace(_scaled_params(N), n_io_nodes=4)
N_NODES = 4
SEED = 7

RETRY = ResiliencePolicy(max_retries=4)


def _cfg(workload, version="c-opt"):
    return build_version(version, build_workload(workload, N))


def _stats_fields(stats):
    return (
        stats.read_calls, stats.write_calls,
        stats.elements_read, stats.elements_written,
        stats.io_time_s, stats.compute_time_s,
        stats.redist_messages, stats.redist_elements, stats.redist_time_s,
        stats.retries, stats.failed_calls, stats.hedged_calls,
        stats.degraded_nests, stats.retry_delay_s,
    )


def _run(workload, *, version="c-opt", collective=None, obs=None,
         faults=None):
    return run_version_parallel(
        _cfg(workload, version), N_NODES, params=PARAMS,
        collective=collective, obs=obs, faults=faults,
    )


def _executor(workload="adi", **kw):
    cfg = _cfg(workload)
    return OOCExecutor(
        cfg.program, cfg.layouts, params=PARAMS, tiling=cfg.tiling,
        storage_spec=cfg.storage_spec, backend="simulate", **kw,
    )


class TestOffBitIdentical:
    """Acceptance gate: ``faults=None`` leaves the stats line and the
    serialized dict byte-identical to not mentioning faults at all —
    independent, collective and direct-executor paths alike."""

    @pytest.mark.parametrize("workload", ["adi", "mxm"])
    def test_independent_parallel(self, workload):
        base = _run(workload)
        off = _run(workload, faults=None)
        assert _stats_fields(off.total_stats) == _stats_fields(
            base.total_stats
        )
        assert str(off.total_stats) == str(base.total_stats)
        assert json.dumps(off.total_stats.to_dict()) == json.dumps(
            base.total_stats.to_dict()
        )
        assert off.time_s == base.time_s

    @pytest.mark.parametrize("workload", ["adi", "mxm"])
    def test_collective_parallel(self, workload):
        coll = CollectiveConfig(mode="auto")
        base = _run(workload, collective=coll)
        off = _run(workload, collective=coll, faults=None)
        assert _stats_fields(off.total_stats) == _stats_fields(
            base.total_stats
        )
        assert str(off.total_stats) == str(base.total_stats)
        assert json.dumps(off.total_stats.to_dict()) == json.dumps(
            base.total_stats.to_dict()
        )
        assert off.time_s == base.time_s

    def test_direct_executor(self):
        base = _executor().run()
        off = _executor(faults=None).run()
        assert _stats_fields(off.stats) == _stats_fields(base.stats)
        assert str(off.stats) == str(base.stats)
        assert json.dumps(off.stats.to_dict()) == json.dumps(
            base.stats.to_dict()
        )

    def test_off_serialization_carries_no_fault_keys(self):
        s = _run("adi").total_stats
        assert not s.has_faults
        d = s.to_dict()
        assert "retries" not in d and "failed_calls" not in d
        assert "faults[" not in str(s)


class TestErrorInjection:
    def test_no_policy_aborts_deterministically(self):
        plan = FaultPlan(seed=SEED, read_error_rate=0.02,
                         write_error_rate=0.02)

        def fail_op():
            with pytest.raises(TransientIOError) as ei:
                _run("adi", faults=FaultConfig(plan))
            return (ei.value.op_index, ei.value.io_node)

        assert fail_op() == fail_op()

    @pytest.mark.parametrize("workload", ["adi", "mxm"])
    def test_retry_policy_completes_and_accounts(self, workload):
        plan = FaultPlan(seed=SEED, read_error_rate=0.02,
                         write_error_rate=0.02)
        run = _run(workload, faults=FaultConfig(plan, RETRY))
        s = run.total_stats
        assert s.has_faults
        assert s.retries > 0
        assert s.retries == s.failed_calls   # each failure retried once
        assert s.retry_delay_s > 0.0
        assert "faults[" in str(s)
        # serialization round-trips the fault counters exactly
        from repro.runtime import IOStats

        back = IOStats.from_dict(json.loads(json.dumps(s.to_dict())))
        assert _stats_fields(back) == _stats_fields(s)

    def test_same_plan_same_run(self):
        faults = FaultConfig(
            FaultPlan(seed=SEED, read_error_rate=0.02), RETRY
        )
        a = _run("adi", faults=faults)
        b = _run("adi", faults=faults)
        assert _stats_fields(a.total_stats) == _stats_fields(b.total_stats)
        assert a.time_s == b.time_s

    def test_different_seeds_differ(self):
        def fingerprint(seed):
            run = _run(
                "adi",
                faults=FaultConfig(
                    FaultPlan(seed=seed, read_error_rate=0.05), RETRY
                ),
            )
            return _stats_fields(run.total_stats)

        assert any(fingerprint(0) != fingerprint(s) for s in (1, 2, 3))

    def test_retry_delay_extends_makespan(self):
        nominal = _run(
            "adi", faults=FaultConfig(FaultPlan(seed=SEED))
        )
        faulted = _run(
            "adi",
            faults=FaultConfig(
                FaultPlan(seed=SEED, read_error_rate=0.05),
                ResiliencePolicy(max_retries=8, backoff_base_s=0.05),
            ),
        )
        assert faulted.time_s > nominal.time_s


class TestStragglerHedging:
    """The bench_faults acceptance scenario, pinned as a test: an 8x
    straggler I/O node costs >=2x makespan without a policy and hedged
    reads recover >=50% of the loss.  The fault-free reference keeps the
    injector active on an empty plan: an injector forces per-call
    execution (weighted nests run their repetitions), so this is the
    apples-to-apples denominator."""

    def test_mxm_straggler_recovery(self):
        cfg = _cfg("mxm")
        free = run_version_parallel(
            cfg, N_NODES, params=PARAMS,
            faults=FaultConfig(FaultPlan(seed=SEED)),
        )
        plan = FaultPlan(seed=SEED, stragglers={0: 8.0})
        nopol = run_version_parallel(
            cfg, N_NODES, params=PARAMS, faults=FaultConfig(plan)
        )
        hedged = run_version_parallel(
            cfg, N_NODES, params=PARAMS,
            faults=FaultConfig(
                plan,
                ResiliencePolicy(hedge_reads=True, hedge_threshold=2.0),
            ),
        )
        regression = nopol.time_s / free.time_s
        recovered = (nopol.time_s - hedged.time_s) / (
            nopol.time_s - free.time_s
        )
        assert regression >= 2.0
        assert recovered >= 0.5
        assert hedged.total_stats.hedged_calls > 0
        assert nopol.total_stats.hedged_calls == 0


class TestDegradation:
    """A two-phase nest whose aggregator rank is failed falls back to
    independent I/O (and says so), unless the policy opts out."""

    COLL = CollectiveConfig(mode="always")

    def _collective_nests(self):
        run = _run("adi", version="col", collective=self.COLL)
        return [n for n, chosen in run.collective.chosen.items() if chosen]

    def test_failed_aggregator_degrades(self):
        assert self._collective_nests(), "scenario needs a two-phase nest"
        # failing every rank guarantees hitting each nest's aggregators
        faults = FaultConfig(FaultPlan(failed_nodes=range(N_NODES)))
        run = _run("adi", version="col", collective=self.COLL, faults=faults)
        assert run.collective.degraded
        assert run.total_stats.degraded_nests == len(run.collective.degraded)
        for nest in run.collective.degraded:
            assert run.collective.chosen[nest] is False

    def test_degrade_opt_out_is_inert(self):
        faults = FaultConfig(
            FaultPlan(failed_nodes=range(N_NODES)),
            ResiliencePolicy(degrade_collective=False),
        )
        run = _run("adi", version="col", collective=self.COLL, faults=faults)
        assert run.collective.degraded == []
        assert run.total_stats.degraded_nests == 0
        assert any(run.collective.chosen.values())


class TestMemoryRelease:
    """Satellite: a read that fails mid-nest must not leak the tile
    footprint — the budget is fully released when the error propagates."""

    def test_plain_path_releases_on_failure(self):
        ex = _executor(faults=FaultConfig(FaultPlan(error_ops={0})))
        with pytest.raises(TransientIOError):
            ex.run()
        assert ex.memory.in_use == 0

    def test_cached_path_releases_on_failure(self):
        ex = _executor(
            cache=CacheConfig(),
            faults=FaultConfig(FaultPlan(error_ops={0})),
        )
        with pytest.raises(TransientIOError):
            ex.run()
        assert ex.memory.in_use == 0

    def test_clean_run_still_balances(self):
        ex = _executor(faults=FaultConfig(FaultPlan(seed=SEED), RETRY))
        ex.run()
        assert ex.memory.in_use == 0
        assert ex.memory.peak > 0


class TestObservabilityUnderFaults:
    def _faulty_obs_run(self):
        obs = Observability()
        run = _run(
            "adi", obs=obs,
            faults=FaultConfig(
                FaultPlan(seed=SEED, read_error_rate=0.02,
                          stragglers={0: 4.0}),
                ResiliencePolicy(max_retries=4, hedge_reads=True),
            ),
        )
        return obs, run

    def test_report_totals_exact_under_faults(self):
        obs, run = self._faulty_obs_run()
        totals = report_totals(obs.report.records)
        s = run.total_stats
        assert s.retries > 0 and s.hedged_calls > 0
        assert totals["read_calls"] == s.read_calls
        assert totals["write_calls"] == s.write_calls
        assert totals["elements_read"] == s.elements_read
        assert totals["elements_written"] == s.elements_written

    def test_fault_metrics_match_stats(self):
        obs, run = self._faulty_obs_run()
        s = run.total_stats
        assert obs.metrics.counter("faults.retries").value == s.retries
        assert obs.metrics.counter("faults.injected").value == s.failed_calls
        assert (
            obs.metrics.counter("faults.hedged_calls").value
            == s.hedged_calls
        )

    def test_fault_events_on_their_own_track(self):
        obs, run = self._faulty_obs_run()
        fault_spans = [
            sp for sp in obs.tracer.virtual_spans if sp.track == "faults"
        ]
        assert fault_spans
        kinds = {sp.cat for sp in fault_spans}
        assert "fault.error" in kinds or "fault.retry" in kinds

    def test_rendered_report_has_resilience_section(self, tmp_path, capsys):
        from repro.obs.cli import main

        obs, run = self._faulty_obs_run()
        path = tmp_path / "trace.json"
        obs.export(str(path))
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        s = run.total_stats
        assert "exact match" in out
        assert "resilience (repro.faults)" in out
        assert f"retries:        {s.retries}" in out
        assert f"failed calls:   {s.failed_calls}" in out
        assert f"hedged reads:   {s.hedged_calls}" in out
        assert f"retry delay:    {s.retry_delay_s:.6f}s" in out

    def test_no_resilience_section_when_off(self, tmp_path, capsys):
        from repro.obs.cli import main

        obs = Observability()
        _run("adi", obs=obs)
        path = tmp_path / "trace.json"
        obs.export(str(path))
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "exact match" in out
        assert "resilience" not in out
