"""Cross-tree behaviour digest: one sha256 line per run shape.

Run it once per checkout (``PYTHONPATH=<tree>/src python
benchmarks/tree_digest.py > out.txt``) and ``diff`` the outputs: every
line is a digest of plain python values only, so two trees that print
the same file priced every call, planned every nest and simulated every
event identically — bit for bit, floats by ``repr``.

Covered, per workload / analytics program × version × {1, 4} nodes ×
plain / cache / tile_sizes / faults / collective auto, always, never:
the makespan, every rank's ``IOStats``, ``io_node_load`` and per-nest
trace rows; every ``NestCollectivePlan``; every ``SimResult`` and its
recorded ``SimEvent`` list; the obs event log of a per-array run
(``nest_records`` and the two-phase records included).  Plus a
real-mode executor per (workload, version) and the ``serve_cached``
replay's signature, per-job cache counters and shared-cache totals.

It only uses names both sides of a refactor are expected to keep
(``run_version_parallel``, ``simulate`` as a global of
``repro.parallel.spmd``, ``serve_script``, ``Observability.events``).
"""

import dataclasses
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.cache import CacheConfig  # noqa: E402
from repro.collective import CollectiveConfig  # noqa: E402
from repro.engine import OOCExecutor  # noqa: E402
from repro.experiments.harness import _scaled_params  # noqa: E402
from repro.faults import FaultConfig, FaultPlan, ResiliencePolicy  # noqa: E402
from repro.obs import ObsConfig, Observability  # noqa: E402
from repro.optimizer.strategies import VERSION_NAMES, build_version  # noqa: E402
from repro.parallel import run_version_parallel, spmd  # noqa: E402
from repro.workloads import build_analytics, build_workload  # noqa: E402
from repro.workloads.registry import analytics_names, workload_names  # noqa: E402

N = 16
PARAMS = replace(_scaled_params(N), n_io_nodes=4)
FAULTS = FaultConfig(
    FaultPlan(seed=3, read_error_rate=0.02, stragglers={1: 2.0}),
    ResiliencePolicy(max_retries=6),
)


def plain(value):
    """``value`` as nested python builtins (arrays → lists, dataclasses →
    dicts, trace tables → row lists), so its ``repr`` is type-stable."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {plain(k): plain(v) for k, v in value.items()}
    if isinstance(value, (str, bytes, int, float, bool, type(None))):
        return value
    if hasattr(value, "__iter__"):
        return [plain(v) for v in value]
    return repr(value)


def rank_view(result):
    return plain((
        result.stats.to_dict(),
        result.io_node_load,
        [(nr.nest_name, nr.tiles_executed, nr.trace, nr.trace_weight,
          nr.stats.to_dict()) for nr in result.nest_runs],
        result.peak_memory,
    ))


def variants(cfg):
    out = {
        "plain": {},
        "cache": {"cache": CacheConfig(policy="lru", budget_fraction=0.25)},
        "tile_sizes": {"tile_sizes": {cfg.program.nests[-1].name: 2}},
        "faults": {"faults": FAULTS},
        "faults+auto": {
            "faults": FAULTS, "collective": CollectiveConfig(mode="auto"),
        },
    }
    for mode in ("auto", "always", "never"):
        out[mode] = {"collective": CollectiveConfig(mode=mode)}
    return out


def run_digest(cfg, n_nodes, kw):
    """One run, its simulator calls recorded with their event lists."""
    sims = []
    original = spmd.simulate

    def recording(params, timelines, *, events=None, **rest):
        events = [] if events is None else events
        result = original(params, timelines, events=events, **rest)
        sims.append((plain(result), plain(events)))
        return result

    spmd.simulate = recording
    try:
        run = run_version_parallel(
            cfg, n_nodes, params=PARAMS, trace=True, **kw
        )
        seen = [plain(run.time_s), run.total_stats.to_dict(),
                [rank_view(r) for r in run.node_results]]
        if run.collective is not None:
            report = run.collective
            seen.append(plain((
                report.nest_plans, report.chosen, report.degraded,
            )))
            obs = Observability(ObsConfig(wall_time=False))
            run_version_parallel(cfg, n_nodes, params=PARAMS, obs=obs, **kw)
            seen.append(plain([
                e for e in obs.events if e["kind"] != "profile"
            ]))
        seen.append(sims)
    finally:
        spmd.simulate = original
    return hashlib.sha256(repr(seen).encode()).hexdigest()


def real_digest(cfg):
    h = hashlib.sha256()
    with OOCExecutor(
        cfg.program, cfg.layouts, params=PARAMS, backend="memory",
        tiling=cfg.tiling, storage_spec=cfg.storage_spec, trace=True,
    ) as ex:
        h.update(repr(rank_view(ex.run())).encode())
        for a in cfg.program.arrays:
            h.update(ex.array_data(a.name).tobytes())
    return h.hexdigest()


def serve_digest():
    from perfbench.workloads import ServeCached
    from repro import serve

    out = []
    for budget in (4096, 0):
        result = serve.serve_script(*ServeCached()._scenario(7, False, budget))
        cache = result.cache
        out.append(plain((
            result.signature(), result.makespan_s, result.waited_requests,
            result.wait_time_s, result.net_busy_s, result.n_events,
            [(j.cache_hits, j.cache_saved_s, j.service_s) for j in result.jobs],
            result.total_stats.to_dict(),
            None if cache is None else
            (cache.hits, cache.misses, cache.evictions, cache.saved_io_s),
        )))
    return hashlib.sha256(repr(out).encode()).hexdigest()


def main(argv):
    names = argv or (*workload_names(), *analytics_names())
    for name in names:
        build = build_workload if name in workload_names() else build_analytics
        program = build(name, N)
        for version in VERSION_NAMES:
            for n_nodes in (1, 4):
                cfg = build_version(
                    version, program, params=PARAMS, n_nodes=n_nodes
                )
                for label, kw in variants(cfg).items():
                    print(f"{name}/{version}/{n_nodes}/{label} "
                          f"{run_digest(cfg, n_nodes, kw)}", flush=True)
            cfg = build_version(version, program, params=PARAMS)
            print(f"{name}/{version}/real {real_digest(cfg)}", flush=True)
    if not argv:
        print(f"serve_cached {serve_digest()}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
