"""Self-tests of the benchmark harness (not of the program under test).

    python -m pytest perfbench -q

Outside tier-1 ``testpaths``: tier-1 time is unchanged.
"""

import json
import os
import re
import time

import pytest

from perfbench import compare, run, sample

sample.use_checkout_paths()

from perfbench import trace  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

CONTRACT = run.load_contract()
DECLARED = [w["name"] for w in CONTRACT["workloads"]]


def test_self_time_is_duration_minus_direct_children():
    spans = [
        ("outer", 0.0, 10.0, -1),
        ("inner", 1.0, 4.0, 0),    # child of outer
        ("leaf", 2.0, 3.0, 1),     # grandchild: covers inner, not outer
        ("inner", 5.0, 7.0, 0),
        ("outer", 11.0, 12.0, -1),
    ]
    assert trace.self_times(spans) == {
        "outer": (10.0 - 3.0 - 2.0 + 1.0, 2),
        "inner": (3.0 - 1.0 + 2.0, 2),
        "leaf": (1.0, 1),
    }


def _installed(sites):
    return [vars(owner)[name] for owner, name, _orig, _t in sites]


@pytest.mark.parametrize("body_raises", [False, True])
def test_every_wrapped_function_is_restored(body_raises):
    sites = trace.resolve()
    originals = [orig for _o, _n, orig, _t in sites]
    tracer = trace.Tracer()
    try:
        with tracer.patched():
            assert all(hasattr(f, "__wrapped__") for f in _installed(sites))
            if body_raises:
                raise RuntimeError("body failed")
    except RuntimeError:
        assert body_raises
    assert all(a is b for a, b in zip(_installed(sites), originals))


def test_traced_call_records_nested_spans_and_counts():
    import repro.runtime.ooc_array as ooc
    from repro.layout import col_major
    from repro.runtime import IOContext, MachineParams, ParallelFileSystem

    params = MachineParams()
    arr = ooc.OutOfCoreArray.create(
        "A", (8, 8), col_major(2), ParallelFileSystem(params), real=False
    )
    tracer = trace.Tracer()
    with tracer.patched():
        arr.count_tile_io(((0, 3), (0, 3)), IOContext(params), False)
    layers = [s[0] for s in tracer.spans]
    # count_tile_io -> addresses -> AddressMap.address, then record_runs
    assert layers[:3] == ["runtime.ooc_array", "runtime.ooc_array", "layout"]
    assert "runtime.stats" in layers
    assert tracer.spans[1][3] == 0 and tracer.spans[2][3] == 1
    assert tracer.counts["runtime.ooc_array.addresses_enumerated"] == 16
    metrics = tracer.layer_metrics(wall_s=1.0)
    assert metrics["runtime.ooc_array.calls"] == 2


def test_missing_targets_are_named():
    stale = [
        trace.Target("engine.plan", "repro.engine.executor", "plan_nest_v2"),
        trace.Target("runtime.stats", "repro.runtime.stats",
                     "IOContext.record_runs_moved"),
        trace.Target("gone", "repro.no_such_module", "f"),
    ]
    with pytest.raises(trace.TraceTargetError) as err:
        trace.resolve(stale)
    for name in ("plan_nest_v2", "record_runs_moved", "repro.no_such_module"):
        assert name in str(err.value)


def test_failing_units_are_counted_not_fatal(tmp_path):
    s = sample.take_sample(
        WORKLOADS["selftest_fail"], 7, workdir=str(tmp_path),
        started_at=time.time(),
    )
    assert s["units"] == 3
    assert sorted(s["failed"]) == ["bad", "raises"]


def test_failed_workload_does_not_abort_the_next(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = run.main([
        "--workload", "selftest_fail", "--workload", "real_mmap", "--tiny",
        "--repeats", "1", "--trace", "0", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())["workloads"]
    fixture, after = doc["selftest_fail"], doc["real_mmap"]
    assert (fixture["failed"], fixture["attempted"]) == (2, 3)
    assert fixture["end_to_end"]["ok_frac"]["value"] == pytest.approx(1 / 3)
    assert after["failed"] == 0 and after["attempted"] > 0


def test_workloads_match_the_contract():
    assert DECLARED == [n for n in WORKLOADS if n != "selftest_fail"]
    for w in CONTRACT["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", DECLARED)
@pytest.mark.parametrize("traced", [0, 1])
def test_tiny_run_emits_every_declared_metric(name, traced, tmp_path, capsys):
    t0 = time.time()
    code = run.main([
        "--workload", name, "--tiny", "--repeats", "1", "--seed", "3",
        "--trace", str(traced), "--out", str(tmp_path / "out.json"),
    ])
    assert code == 0 and time.time() - t0 < 60
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = CONTRACT["per_layer" if traced else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _metric(value, spread=0.0):
    lo, hi = value * (1 - spread), value * (1 + spread)
    return {"value": value, "min": lo, "q1": lo, "q3": hi, "max": hi}


@pytest.mark.parametrize("a, b, want", [
    (_metric(1.0), _metric(1.05), "same"),
    (_metric(1.0), _metric(1.2), "worse"),
    (_metric(1.0), _metric(0.8), "better"),
    (_metric(1.0, 0.2), _metric(1.15, 0.2), "unresolved"),
    ({"value": 1.0}, {"value": 0.8}, "better"),  # no spread recorded
])
def test_compare_verdicts(a, b, want):
    assert compare.verdict(a, b, "lower", 0.1) == want


def test_compare_flags_regressions():
    def doc(wall, failed):
        return {"workloads": {"w": {
            "attempted": 10, "failed": failed, "stats_digest": "x",
            "end_to_end": {"wall_s": _metric(wall)},
        }}}

    lines, regressed = compare.compare(doc(1.0, 0), doc(1.5, 0), CONTRACT)
    assert regressed and any("worse" in line for line in lines)
    _lines, regressed = compare.compare(doc(1.0, 0), doc(1.0, 1), CONTRACT)
    assert regressed
    _lines, regressed = compare.compare(doc(1.0, 0), doc(1.02, 0), CONTRACT)
    assert not regressed


def test_sample_scratch_is_cleaned_up():
    work = os.path.join(sample.HERE, ".work")
    assert not os.path.isdir(work) or os.listdir(work) == []
