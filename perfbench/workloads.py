"""The six workloads: what each sample sets up, times and checks.

A workload is a list of *units* — one ``(code, version, ...)`` run each,
executed in a seeded order inside the timed body — plus an untimed
``verify``.  Every call into the program goes through a package
attribute (``optimizer.build_version``, ``parallel.run_version_parallel``
...) so that :mod:`perfbench.trace` can wrap the call for a traced body;
the program itself receives only the generated inputs.

Sizes are set so that each body takes a little over 4 s at the seed
commit on the 2-core box the benchmark was sized on (``TINY`` sizes, for
the harness self-tests, take a fraction of a second).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import repro.autotune as autotune
import repro.engine as engine
import repro.optimizer as optimizer
import repro.parallel as parallel
import repro.serve as serve
import repro.workloads as programs
from repro.backends import MmapBackend
from repro.collective import CollectiveConfig
from repro.experiments.harness import ExperimentSettings, _scaled_params
from repro.obs import ObsConfig, Observability
from repro.obs.profile import ProfileConfig
from repro.runtime import IOStats

#: workload-specific per-layer metrics; a workload fills in its own and
#: reports the rest as 0 so every traced run prints every name
EXTRA_LAYER_METRICS = (
    "serve.shared_cache.hit_ratio",
    "serve.shared_cache.inserts",
    "serve.shared_cache.evictions",
    "serve.scheduler.jobs_per_s",
    "autotune.pred_err",
    "backends.ops",
    "backends.bytes",
    "obs.overhead_ratio.metrics",
    "obs.overhead_ratio.per_array",
    "obs.overhead_ratio.journal",
    "obs.overhead_ratio.profile",
)


@dataclass
class Unit:
    key: str
    run: Callable[[], object]


def stats_mismatch(a: IOStats, b: IOStats) -> str | None:
    """Counters must be equal; modelled seconds may differ in the last
    digits (a real run *executes* a nest's repetitions, a simulated one
    scales the first), so floats are compared to rel 1e-9."""
    da, db = a.to_dict(), b.to_dict()
    da.pop("cache", None), db.pop("cache", None)
    for k in sorted(set(da) | set(db)):
        x, y = da.get(k), db.get(k)
        same = (
            math.isclose(x, y, rel_tol=1e-9, abs_tol=0.0)
            if isinstance(x, float) and isinstance(y, float)
            else x == y
        )
        if not same:
            return f"{k}: {x!r} != {y!r}"
    return None


def _program(code: str, n: int):
    build = (
        programs.build_workload
        if code in programs.WORKLOADS
        else programs.build_analytics
    )
    return build(code, n)


class Workload:
    name: str
    why: str

    def setup(self, seed: int, tiny: bool, workdir: str) -> list[Unit]:
        """Build inputs and reference results; returns the units in
        definition order (the harness shuffles them by seed)."""
        raise NotImplementedError

    def measure(self, out) -> tuple[float, IOStats]:
        """(simulated seconds, folded accounted stats) of one unit."""
        return out

    def verify(self, outs: dict[str, object], rng: random.Random) -> dict[str, str]:
        """Failed unit key → reason.  Only units that ran are passed."""
        return {}

    def layer_metrics(self, outs: dict[str, object], wall_s: float) -> dict[str, float]:
        """This workload's entries of :data:`EXTRA_LAYER_METRICS`, read
        from unit outputs after a traced body."""
        return {}

    def close(self, outs: dict[str, object]) -> None:
        """Release what the units left open."""


class _VersionRuns(Workload):
    """``build_version`` + ``run_version_parallel`` per unit — the body
    of ``run_table2_row``, unrolled so each ``ParallelRun`` (and with it
    the accounted ``IOStats``) is kept."""

    n_nodes: int

    def _unit(self, key, program, version, params, **run_kw) -> Unit:
        n_nodes = self.n_nodes

        def run():
            cfg = optimizer.build_version(
                version, program, params=params, n_nodes=n_nodes
            )
            done = parallel.run_version_parallel(
                cfg, n_nodes, params=params, **run_kw
            )
            # only the summary outlives the unit: a kept ParallelRun (call
            # traces, timelines) would make peak RSS grow with unit order
            return done.time_s, done.total_stats

        return Unit(key, run)

    def _sim_vs_real(self, code: str, version: str) -> str | None:
        """Simulate-mode accounting against a run that moves the data
        (in-memory backend), at n=16 where real mode is cheap."""
        params = _scaled_params(16)
        cfg = optimizer.build_version(
            version, _program(code, 16), params=params, n_nodes=self.n_nodes
        )
        sim = parallel.run_version_parallel(cfg, self.n_nodes, params=params)
        real = parallel.run_version_parallel(
            cfg, self.n_nodes, params=params, backend="memory"
        )
        return stats_mismatch(sim.total_stats, real.total_stats)

    def verify(self, outs, rng):
        key = rng.choice(sorted(outs))
        code, version = key.split("/")[:2]
        why = self._sim_vs_real(code, version)
        return {key: f"simulate vs real stats at n=16: {why}"} if why else {}


class Table2Sweep(_VersionRuns):
    name = "table2_sweep"
    why = (
        "the paper's Table 2 (10 codes x col/l-opt/c-opt/h-opt, n=128, 16 nodes): "
        "planner-bound, plan_nest + dependence analysis once per rank x nest"
    )
    versions = ("col", "l-opt", "c-opt", "h-opt")
    #: rows re-run under each observability level for obs.overhead_ratio
    obs_codes = ("adi", "mxm")

    def setup(self, seed, tiny, workdir):
        settings = (
            replace(ExperimentSettings().with_n(32), table2_nodes=4)
            if tiny else ExperimentSettings()
        )
        codes = self.obs_codes if tiny else tuple(programs.WORKLOADS)
        self.n_nodes = settings.table2_nodes
        self.params = settings.params
        self.programs = {c: _program(c, settings.n) for c in codes}
        return [
            self._unit(f"{c}/{v}", self.programs[c], v, self.params)
            for c in codes
            for v in self.versions
        ]

    def _obs_rows_s(self, **run_kw) -> float:
        t0 = time.perf_counter()
        for code in self.obs_codes:
            for v in self.versions:
                kw = {k: make() for k, make in run_kw.items()}
                self._unit(v, self.programs[code], v, self.params, **kw).run()
        return time.perf_counter() - t0

    def layer_metrics(self, outs, wall_s):
        """Wall of the adi+mxm rows with one observability level on,
        over the same rows with everything off (ROADMAP needle 4)."""
        counters_only = ObsConfig(
            wall_time=False, sim_events=False, per_array=False
        )
        levels = {
            "metrics": {"obs": lambda: Observability(counters_only)},
            "per_array": {"obs": lambda: Observability()},
            "journal": {"obs": lambda: Observability(journal=io.StringIO())},
            "profile": {"profile": lambda: ProfileConfig()},
        }
        off = self._obs_rows_s()
        return {
            f"obs.overhead_ratio.{level}": self._obs_rows_s(**kw) / off
            for level, kw in levels.items()
        }


class BigArrayWalk(_VersionRuns):
    name = "bigarray_walk"
    why = (
        "4 codes x col/c-opt at n=784 on 2 nodes: address/run generation and "
        "pricing bound (AddressMap.address, ooc_array, stats); planner <1%"
    )
    n_nodes = 2

    def setup(self, seed, tiny, workdir):
        n = 64 if tiny else 784
        params = _scaled_params(n)
        return [
            self._unit(f"{c}/{v}", _program(c, n), v, params)
            for c in ("mxm", "adi", "trans", "vpenta")
            for v in ("col", "c-opt")
        ]


class CollectiveSim(_VersionRuns):
    name = "collective_sim"
    why = (
        "3 codes x col/row x collective auto/never at n=544, 4 nodes, 8 I/O "
        "nodes: the only place the event simulator dominates (to 147k events)"
    )
    n_nodes = 4

    def setup(self, seed, tiny, workdir):
        n = 64 if tiny else 544
        self.params = replace(_scaled_params(n), n_io_nodes=8)
        self.programs = {c: _program(c, n) for c in ("adi", "trans", "vpenta")}
        return [
            self._unit(
                f"{c}/{v}/{mode}", prog, v, self.params,
                collective=CollectiveConfig(mode=mode),
            )
            for c, prog in self.programs.items()
            for v in ("col", "row")
            for mode in ("auto", "never")
        ]

    def verify(self, outs, rng):
        """``mode="never"`` only swaps the makespan model: its folded
        stats must be the plain independent run's."""
        nevers = sorted(k for k in outs if k.endswith("/never"))
        if not nevers:
            return {}
        key = rng.choice(nevers)
        code, version, _ = key.split("/")
        plain = self._unit(key, self.programs[code], version, self.params).run()
        why = stats_mismatch(outs[key][1], plain[1])
        return {key: f"never vs collective=None: {why}"} if why else {}


class ServeCached(Workload):
    name = "serve_cached"
    why = (
        "16 jobs of 4 tenants replayed through serve_script with a 4096-"
        "element shared tile cache: SharedTileCache.insert rescans every "
        "entry per insertion"
    )
    #: every tenant submits this list in this order.  demo_scenario draws
    #: the mix per seed, which moves the body between 5 s and 10 s; a
    #: fixed mix keeps the work equal across seeds.
    tenant_jobs = (("adi", 1), ("trans", 1), ("trans", 2), ("mxm", 1))
    n_tenants = 4

    def _scenario(self, seed: int, tiny: bool, budget: int):
        """The seed draws tenant weights and arrival gaps."""
        rng = random.Random(seed)
        n = 8 if tiny else 16
        weights = [1.0, 2.0] * (self.n_tenants // 2)
        rng.shuffle(weights)
        tenants = tuple(
            serve.TenantConfig(
                name=f"tenant{i}",
                weight=w,
                cache_quota_elements=budget // (2 * self.n_tenants),
            )
            for i, w in enumerate(weights)
        )
        jobs = []
        for t in tenants:
            arrival = 0.0
            for code, n_nodes in self.tenant_jobs[: 2 if tiny else None]:
                jobs.append(serve.JobSpec(
                    tenant=t.name, workload=code, version="c-opt", n=n,
                    n_nodes=n_nodes, arrival_s=arrival,
                ))
                arrival += rng.uniform(0.0, 2.0)
        jobs.sort(key=lambda j: (j.arrival_s, j.tenant))
        profile = serve.ClusterProfile(
            n_compute_nodes=4, tenants=tenants, cache_budget_elements=budget
        )
        script = serve.WorkloadScript(seed=seed, jobs=tuple(jobs))
        return profile, script, serve.ServePolicy(fairness="wfq")

    def setup(self, seed, tiny, workdir):
        self.cached = self._scenario(seed, tiny, 4096)
        self.uncached = self._scenario(seed, tiny, 0)
        return [Unit("script", lambda: serve.serve_script(*self.cached))]

    def measure(self, out):
        return out.makespan_s, out.total_stats

    def verify(self, outs, rng):
        result = outs.get("script")
        if result is None:
            return {}
        left = [j.job_id for j in result.jobs if j.state != "done"]
        if left:
            return {"script": f"jobs not done: {left}"}
        # the cache prices served time only; accounting is the replay's
        replay = serve.serve_script(*self.uncached)
        why = stats_mismatch(result.total_stats, replay.total_stats)
        return {"script": f"cached vs uncached stats: {why}"} if why else {}

    def layer_metrics(self, outs, wall_s):
        result = outs["script"]
        cache = result.summary_dict()["cache"]
        lookups = cache["hits"] + cache["misses"]
        done = sum(j.state == "done" for j in result.jobs)
        return {
            "serve.shared_cache.hit_ratio":
                cache["hits"] / lookups if lookups else 0.0,
            "serve.shared_cache.inserts":
                sum(t["insertions"] for t in cache["tenants"].values()),
            "serve.shared_cache.evictions": cache["evictions"],
            "serve.scheduler.jobs_per_s": done / wall_s,
        }


class AutotuneJoint(Workload):
    name = "autotune_joint"
    why = (
        "solve_joint then the decided run for 11 programs at n=32, 4 nodes: "
        "time to decision; reaches plan_nest through autotune.model, not the "
        "executor"
    )
    n_nodes = 4
    #: the programs bench_autotune.py pins joint < c-opt on
    pinned = ("adi", "pipeline")

    def setup(self, seed, tiny, workdir):
        codes = self.pinned if tiny else (*programs.WORKLOADS, "pipeline")
        self.params = replace(_scaled_params(32), n_io_nodes=4)
        self.programs = {c: _program(c, 32) for c in codes}

        def unit(code):
            def run():
                decision = autotune.solve_joint(
                    self.programs[code], params=self.params,
                    n_nodes=self.n_nodes,
                )
                done = parallel.run_version_parallel(
                    decision.version_config(), self.n_nodes,
                    params=self.params, **decision.run_kwargs(),
                )
                return decision, done.time_s, done.total_stats
            return Unit(code, run)

        return [unit(c) for c in codes]

    def measure(self, out):
        _decision, time_s, stats = out
        return time_s, stats

    def verify(self, outs, rng):
        failed = {}
        for code, (decision, time_s, _stats) in outs.items():
            if decision.solver != "milp":
                failed[code] = f"solver fell back to {decision.solver}"
            elif code in self.pinned:
                greedy = parallel.run_version_parallel(
                    optimizer.build_version("c-opt", self.programs[code]),
                    self.n_nodes, params=self.params,
                )
                if time_s > greedy.time_s:
                    failed[code] = (
                        f"joint {time_s} s slower than c-opt {greedy.time_s} s"
                    )
        return failed

    def layer_metrics(self, outs, wall_s):
        errs = [
            abs(d.predicted_cost_s - time_s) / time_s
            for d, time_s, _stats in outs.values()
        ]
        return {"autotune.pred_err": sum(errs) / len(errs)}


class RealMmap(Workload):
    name = "real_mmap"
    why = (
        "6 programs x col/c-opt at n=48 through MmapBackend: real reads and "
        "writes with interpreted element loops, checked against the reference "
        "interpreter"
    )

    def setup(self, seed, tiny, workdir):
        n = 12 if tiny else 48
        self.programs = {
            c: _program(c, n)
            for c in ("adi", "trans", "pipeline", "emit", "window", "ajoin")
        }
        self.reference = {
            c: engine.interpret_program(p) for c, p in self.programs.items()
        }
        self.configs = {
            f"{c}/{v}": optimizer.build_version(v, p)
            for c, p in self.programs.items()
            for v in ("col", "c-opt")
        }

        def unit(key):
            def run():
                ex = self._executor(
                    key, MmapBackend(os.path.join(workdir, key.replace("/", "-")))
                )
                return ex, ex.run()
            return Unit(key, run)

        return [unit(k) for k in self.configs]

    def _executor(self, key, backend):
        cfg = self.configs[key]
        return engine.OOCExecutor(
            cfg.program, cfg.layouts, tiling=cfg.tiling,
            storage_spec=cfg.storage_spec, backend=backend,
        )

    def measure(self, out):
        _ex, result = out
        return result.stats.total_time_s, result.stats

    def verify(self, outs, rng):
        failed = {}
        for key, (ex, result) in outs.items():
            code = key.split("/")[0]
            wrong = [
                name for name, want in self.reference[code].items()
                if not np.allclose(
                    ex.array_data(name), want, rtol=1e-9, atol=0.0
                )
            ]
            if wrong:
                failed[key] = f"arrays differ from the interpreter: {wrong}"
                continue
            sim = self._executor(key, "simulate").run()
            why = stats_mismatch(result.stats, sim.stats)
            if why:
                failed[key] = f"mmap vs simulate stats: {why}"
        return failed

    def layer_metrics(self, outs, wall_s):
        measured = [result.backend_metrics for _ex, result in outs.values()]
        return {
            "backends.ops": sum(m.ops for m in measured),
            "backends.bytes": sum(m.bytes_moved for m in measured),
        }

    def close(self, outs):
        for ex, _result in outs.values():
            ex.close()


class SelftestFail(Workload):
    """Fixture for perfbench/test_harness.py (not in BENCHMARK.json):
    one unit passes, one raises, one fails verify."""

    name = "selftest_fail"
    why = "harness self-test fixture"

    def setup(self, seed, tiny, workdir):
        def boom():
            raise RuntimeError("unit raised on purpose")

        ok = lambda: (1.0, IOStats(read_calls=1))  # noqa: E731
        return [Unit("ok", ok), Unit("raises", boom), Unit("bad", ok)]

    def measure(self, out):
        return out

    def verify(self, outs, rng):
        return {"bad": "verify failed on purpose"}


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Table2Sweep(), BigArrayWalk(), CollectiveSim(), ServeCached(),
        AutotuneJoint(), RealMmap(), SelftestFail(),
    )
}


def stats_digest(stats_by_unit: dict[str, dict]) -> str:
    """sha256 over the sorted per-unit ``IOStats.to_dict()`` — equal
    digests mean two commits account bit-identically."""
    blob = json.dumps(sorted(stats_by_unit.items()), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()
