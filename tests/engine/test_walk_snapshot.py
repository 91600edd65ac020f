"""Cross-commit snapshot of everything that reads the tile geometry.

``walk_snapshot.json`` holds digests taken at the commit *before* the
geometry moved behind :class:`repro.engine.plan.TileSpace`:

- per (workload, version): every rank's stats, I/O-node loads, per-nest
  traces, ``tiles_executed``, peak memory and the makespan, over {1, 4}
  nodes × plain / cache / ``tile_sizes`` / collective / faults, plus a
  lone real-mode executor's array contents (the makespan is hashed as
  ``float``, its value: these were re-recorded with that one change
  applied to the commit before the event simulator's loop returned
  python floats where it had returned ``np.float64``);
- per ``autotune_joint`` program (perfbench's eleven, n=32, 4 nodes):
  ``solve_joint().to_dict()`` — the model's tile count and
  representative tile feed every priced configuration (these eleven
  were re-recorded when the model began pricing that tile with the
  runtime's ``runs`` → ``plan_runs`` → ``batch_time``);
- per workload: h-opt's ``storage_spec`` at 1, 4 and 16 nodes — chunk
  shapes and origins are the start-anchor tile's footprints.

All of it is deterministic, so a digest that moves is a changed tile
order, tile box, tile count or accounting path — not noise.

Regenerate (only when a change is *meant* to move the walk) with
``PYTHONPATH=src python tests/engine/test_walk_snapshot.py --write``.
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.autotune import solve_joint
from repro.cache import CacheConfig
from repro.collective import CollectiveConfig
from repro.engine import OOCExecutor
from repro.experiments.harness import _scaled_params
from repro.faults import FaultConfig, FaultPlan, ResiliencePolicy
from repro.optimizer.strategies import VERSION_NAMES, build_version
from repro.parallel import run_version_parallel
from repro.workloads import WORKLOADS, build_analytics, build_workload
from repro.workloads.registry import analytics_names, workload_names

N = 16
PARAMS = replace(_scaled_params(N), n_io_nodes=4)
ALL_WORKLOADS = tuple(workload_names()) + tuple(analytics_names())
NODE_COUNTS = (1, 4)
JOINT_PROGRAMS = (*WORKLOADS, "pipeline")
JOINT_PARAMS = replace(_scaled_params(32), n_io_nodes=4)
SNAPSHOT = Path(__file__).with_name("walk_snapshot.json")


def _program(name, n=N):
    build = build_workload if name in workload_names() else build_analytics
    return build(name, n)


def _variants(cfg):
    return {
        "plain": {},
        "cache": {"cache": CacheConfig(policy="lru", budget_fraction=0.25)},
        "tile_sizes": {"tile_sizes": {cfg.program.nests[-1].name: 2}},
        "collective": {"collective": CollectiveConfig(mode="auto")},
        "faults": {
            "faults": FaultConfig(
                FaultPlan(seed=3, read_error_rate=0.02, stragglers={1: 2.0}),
                ResiliencePolicy(max_retries=6),
            )
        },
    }


def _rank_view(result):
    return (
        result.stats.to_dict(),
        result.io_node_load.tolist(),
        [(nr.nest_name, nr.tiles_executed, nr.trace, nr.trace_weight,
          nr.stats.to_dict(), nr.plan.tile_size, nr.plan.spec.tiled)
         for nr in result.nest_runs],
        result.peak_memory,
        result.over_budget_tiles,
    )


def _digest(workload, version):
    """One sha256 over every run shape of one (workload, version)."""
    h = hashlib.sha256()
    program = _program(workload)
    for n_nodes in NODE_COUNTS:
        cfg = build_version(version, program, params=PARAMS, n_nodes=n_nodes)
        for label, kw in _variants(cfg).items():
            run = run_version_parallel(
                cfg, n_nodes, params=PARAMS, trace=True, **kw
            )
            h.update(repr((
                label, n_nodes, float(run.time_s), run.total_stats.to_dict(),
                [_rank_view(r) for r in run.node_results],
            )).encode())
    # a lone real-mode executor: the walk moves data, so the arrays'
    # bytes pin the tile boxes and their order as well
    cfg = build_version(version, program, params=PARAMS)
    with OOCExecutor(
        cfg.program, cfg.layouts, params=PARAMS, backend="memory",
        tiling=cfg.tiling, storage_spec=cfg.storage_spec, trace=True,
    ) as ex:
        h.update(repr(_rank_view(ex.run())).encode())
        for a in cfg.program.arrays:
            h.update(ex.array_data(a.name).tobytes())
    return h.hexdigest()


def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _joint_digest(code):
    decision = solve_joint(_program(code, 32), params=JOINT_PARAMS, n_nodes=4)
    return _sha(json.dumps(decision.to_dict(), sort_keys=True))


def _hopt_spec_digest(workload):
    program = _program(workload)
    return _sha([
        sorted(build_version(
            "h-opt", program, params=PARAMS, n_nodes=n_nodes
        ).storage_spec.items())
        for n_nodes in (1, 4, 16)
    ])


def _snapshot():
    out = {f"{w}/{v}": _digest(w, v)
           for w in ALL_WORKLOADS for v in VERSION_NAMES}
    out.update({f"solve_joint/{c}": _joint_digest(c) for c in JOINT_PROGRAMS})
    out.update({f"h-opt-spec/{w}": _hopt_spec_digest(w)
                for w in ALL_WORKLOADS})
    return out


WANT = json.loads(SNAPSHOT.read_text()) if SNAPSHOT.exists() else {}


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_walk_matches_the_recorded_snapshot(workload):
    for version in VERSION_NAMES:
        assert _digest(workload, version) == WANT[f"{workload}/{version}"], (
            f"{workload}/{version}: the tile walk's stats, loads, traces, "
            f"tile counts, peaks or array contents moved"
        )


@pytest.mark.parametrize("code", JOINT_PROGRAMS)
def test_solve_joint_matches_the_recorded_snapshot(code):
    assert _joint_digest(code) == WANT[f"solve_joint/{code}"]


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_hopt_storage_spec_matches_the_recorded_snapshot(workload):
    assert _hopt_spec_digest(workload) == WANT[f"h-opt-spec/{workload}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    SNAPSHOT.write_text(
        json.dumps(_snapshot(), indent=1, sort_keys=True) + "\n"
    )
