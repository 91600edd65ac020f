"""One sample: set-up, one execution of the workload body, verify.

``run.py`` starts this file in a **fresh process** per sample, because
users pay the cold cost on every run (``python -m repro.experiments
table2`` is a one-shot CLI) and a warm in-process repeat would let a
memo table make the body vanish.  The last line printed is the sample
as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import resource
import shutil
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def use_checkout_paths() -> None:
    """Import ``perfbench`` and ``repro`` from this checkout.  The
    script's own directory is dropped from ``sys.path`` so that
    ``perfbench/trace.py`` cannot shadow the stdlib ``trace``."""
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    for p in (os.path.join(ROOT, "src"), ROOT):
        if p not in sys.path:
            sys.path.insert(0, p)


def calibrate() -> float:
    """A fixed pure-python + numpy spin, so rows taken on different
    machines can be normalised.  Not a gated metric."""
    import numpy as np

    t0 = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i * i % 7
    a = np.arange(1 << 16, dtype=np.float64)
    for _ in range(100):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def take_sample(
    workload,
    seed: int,
    *,
    workdir: str,
    started_at: float,
    tiny: bool = False,
    traced: bool = False,
    untraced_wall_s: float | None = None,
    spans_out: str | None = None,
) -> dict:
    """Run one sample of ``workload`` in this process."""
    from perfbench import trace
    from perfbench.workloads import EXTRA_LAYER_METRICS, stats_digest

    units = workload.setup(seed, tiny, workdir)
    random.Random(seed).shuffle(units)
    tracer = trace.Tracer() if traced else None
    patched = tracer.patched() if traced else contextlib.nullcontext()
    outs: dict[str, object] = {}
    failed: dict[str, str] = {}
    try:
        with patched:
            setup_s = time.time() - started_at
            wall0, cpu0 = time.perf_counter(), time.process_time()
            marks = [(wall0, cpu0)]
            for unit in units:
                # a unit that raises is a failed unit, not a failed run
                try:
                    outs[unit.key] = unit.run()
                except Exception as e:
                    failed[unit.key] = f"raised {type(e).__name__}: {e}"
                marks.append((time.perf_counter(), time.process_time()))
            wall_s, cpu_s = marks[-1][0] - wall0, marks[-1][1] - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        sims: dict[str, float] = {}
        stats: dict[str, dict] = {}
        for key, out in outs.items():
            sim_s, io = workload.measure(out)
            sims[key], stats[key] = sim_s, io.to_dict()
            if not (math.isfinite(sim_s) and sim_s > 0):
                failed[key] = f"simulated time {sim_s!r}"
        ran_ok = {k: v for k, v in outs.items() if k not in failed}
        if ran_ok:
            failed.update(workload.verify(ran_ok, random.Random(seed)))

        sample = {
            "workload": workload.name,
            "seed": seed,
            "units": len(units),
            "failed": failed,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "sim_time_s": math.fsum(sims.values()),
            "sim_io_calls": sum(
                s["read_calls"] + s["write_calls"] for s in stats.values()
            ),
            "stats_digest": stats_digest(stats),
            "calib_s": calibrate(),
            # per unit, so the parent can take each unit's fastest sample
            "unit_wall_s": {
                u.key: b[0] - a[0] for u, a, b in zip(units, marks, marks[1:])
            },
            "unit_cpu_s": {
                u.key: b[1] - a[1] for u, a, b in zip(units, marks, marks[1:])
            },
        }
        if tracer is not None:
            layers = tracer.layer_metrics(wall_s)
            layers.update(dict.fromkeys(EXTRA_LAYER_METRICS, 0.0))
            if len(outs) == len(units):
                layers.update(
                    workload.layer_metrics(outs, untraced_wall_s or wall_s)
                )
            layers["trace.overhead_ratio"] = (
                wall_s / untraced_wall_s if untraced_wall_s else 0.0
            )
            sample["layers"] = layers
            if spans_out:
                _write_spans(tracer, spans_out)
        return sample
    finally:
        workload.close(outs)


def _write_spans(tracer, path: str) -> None:
    import numpy as np

    names = sorted({s[0] for s in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    np.savez_compressed(
        path,
        layers=np.array(names),
        layer=np.array([index[s[0]] for s in tracer.spans], dtype=np.int16),
        start=np.array([s[1] for s in tracer.spans]),
        end=np.array([s[2] for s in tracer.spans]),
        parent=np.array([s[3] for s in tracer.spans], dtype=np.int64),
    )


def main(argv: list[str] | None = None) -> int:
    started_at = time.time()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--started-at", type=float, default=started_at,
                    help="time.time() when the parent spawned this process")
    ap.add_argument("--untraced-wall-s", type=float)
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    # every file a sample writes stays inside the checkout
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir)
    os.environ["TMPDIR"] = workdir
    try:
        use_checkout_paths()
        from perfbench.workloads import WORKLOADS

        sample = take_sample(
            WORKLOADS[args.workload],
            args.seed,
            workdir=workdir,
            started_at=args.started_at,
            tiny=args.tiny,
            traced=args.traced,
            untraced_wall_s=args.untraced_wall_s,
            spans_out=args.spans_out,
        )
        import numpy

        try:
            scipy_version = metadata.version("scipy")
        except metadata.PackageNotFoundError:
            scipy_version = None  # solve_joint then falls back, and verify says so
        sample["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy_version,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
