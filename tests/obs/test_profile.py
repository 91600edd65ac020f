"""Wall time by layer + deterministic work counters (repro.obs.profile).

The load-bearing guarantees:

- work counters are **bit-identical** across repeat runs, on the
  direct-executor, independent-parallel and two-phase-collective paths;
- ``profile=None`` (the default — the one spelling of "off") leaves
  stats bit-identical, and profiling adds only the ``profile`` section
  and the ``work.*`` metrics to an obs payload;
- the layer table is one fold of one cProfile capture: its rows and the
  unattributed remainder sum to the capture's total, every row is a
  known layer, and the live report, ``top trace.json`` and
  ``top run.jsonl`` are the same text;
- the collapsed-stack export validates against the folded format rules.
"""

import json
import pstats
import sys

import pytest

from dataclasses import fields, replace

from repro.engine import OOCExecutor
from repro.experiments.harness import _scaled_params
from repro.obs import (
    Observability,
    ProfileConfig,
    ProfileSession,
    WorkCounters,
    render_profile,
    validate_collapsed,
)
from repro.obs import profile as prof_mod
from repro.obs.profile import LAYERS, capture, layer_of, layer_table
from repro.optimizer import build_version
from repro.parallel import CollectiveConfig, run_version_parallel
from repro.workloads import build_workload

N = 24
PARAMS = replace(_scaled_params(N), n_io_nodes=4)
N_NODES = 4


def _cfg(workload, version="c-opt"):
    return build_version(version, build_workload(workload, N))


def _stats_fields(stats):
    return (
        stats.read_calls, stats.write_calls,
        stats.elements_read, stats.elements_written,
        stats.io_time_s, stats.compute_time_s,
        stats.redist_messages, stats.redist_elements, stats.redist_time_s,
    )


class TestWorkCounters:
    def test_delta_is_pairwise_difference(self):
        wc = WorkCounters()
        before = wc.snapshot()
        wc.plan_runs_calls += 3
        wc.priced_runs += 10
        wc.add_loop_iters("element", 7)
        wc.add_loop_iters("element", 1)
        wc.add_loop_iters("tile", 2)
        d = WorkCounters.delta(before, wc.snapshot())
        assert d["plan_runs_calls"] == 3
        assert d["priced_runs"] == 10
        assert d["sim_events"] == 0
        assert d["cache_probes"] == 0
        assert d["python_loop_iters"] == {"element": 8, "tile": 2}

    def test_zero_phases_omitted(self):
        wc = WorkCounters()
        before = wc.snapshot()
        wc.add_loop_iters("tile", 4)
        d = WorkCounters.delta(before, wc.snapshot())
        assert "element" not in d["python_loop_iters"]
        assert d["python_loop_iters"] == {"tile": 4}

    def test_global_counter_is_cumulative(self):
        before = prof_mod.WORK.snapshot()
        prof_mod.WORK.cache_probes += 5
        d = WorkCounters.delta(before, prof_mod.WORK.snapshot())
        assert d["cache_probes"] == 5


class TestProfileSession:
    def test_finish_carries_work_delta(self):
        s = ProfileSession(ProfileConfig())
        with s:
            prof_mod.WORK.sim_events += 9
        result = s.finish()
        assert result.work["sim_events"] == 9
        assert result.pstats is None

    def test_cprofile_capture_produces_collapsed(self):
        s = ProfileSession(ProfileConfig(cprofile=True))
        with s:
            sum(i * i for i in range(1000))
        result = s.finish()
        lines = result.collapsed()
        assert lines
        validate_collapsed(lines)
        assert result.layers["total_s"] > 0.0


class TestCapture:
    """The one owner of a capture, shared by both entry points."""

    def test_none_and_disabled_never_activate(self):
        # "off" is None; a config without cprofile still counts work
        # but never switches the interpreter's profiler on
        with capture(None) as cap:
            assert sys.getprofile() is None
        assert cap.result is None
        with capture(ProfileConfig()) as cap:
            assert sys.getprofile() is None
        assert cap.result.layers is None
        assert cap.result.collapsed() == []

    def test_config_is_owned_finished_and_published(self):
        obs = Observability()
        with capture(ProfileConfig(cprofile=True), obs) as cap:
            assert sys.getprofile() is not None
            assert cap.result is None
            prof_mod.WORK.sim_events += 4
        assert sys.getprofile() is None
        assert cap.result.work["sim_events"] == 4
        assert obs.metrics.to_dict()["work.sim_events"]["value"] == 4
        published = obs.to_payload()["profile"]
        assert published["work"]["sim_events"] == 4
        assert published["layers"] == cap.result.layers

    def test_raising_block_deactivates(self):
        with pytest.raises(RuntimeError):
            with capture(ProfileConfig(cprofile=True)) as cap:
                raise RuntimeError("boom")
        assert sys.getprofile() is None
        assert cap.result is None


def _stats(table):
    """A pstats.Stats over a hand-written ``{func: (cc, nc, tt, ct,
    callers)}`` table."""
    stats = pstats.Stats()
    stats.stats = table
    return stats


class TestLayerTable:
    """The fold of one cProfile capture into self seconds per layer."""

    def test_vocabulary_is_perfbenchs(self):
        # perfbench keeps its own boundary tracer; the two tables stay
        # readable side by side only while they print the same names
        from perfbench.trace import LAYERS as perfbench_layers

        assert LAYERS == perfbench_layers

    def test_layer_of(self):
        import repro.cache.tile_cache
        import repro.ir.nest
        import repro.optimizer.ilp
        import repro.optimizer.strategies
        import repro.runtime.file
        import repro.runtime.stats

        assert layer_of(repro.runtime.stats.__file__) == "runtime.stats"
        assert layer_of(repro.optimizer.ilp.__file__) == "optimizer.ilp"
        assert layer_of(repro.optimizer.strategies.__file__) == "optimizer"
        assert layer_of(repro.cache.tile_cache.__file__) == "cache"
        # no layer names these modules: their top-level package does
        assert layer_of(repro.runtime.file.__file__) == "runtime"
        assert layer_of(repro.ir.nest.__file__) == "ir"
        assert layer_of(json.__file__) is None
        assert layer_of("~") is None

    def test_builtin_splits_along_caller_edges(self):
        import repro.ir.nest
        import repro.runtime.stats

        price = (repro.runtime.stats.__file__, 10, "record_runs")
        walk = (repro.ir.nest.__file__, 20, "estimated_iterations")
        dumps = (json.__file__, 30, "dumps")
        builtin = ("~", 0, "<built-in method builtins.sum>")
        table = layer_table(_stats({
            price: (2, 2, 1.0, 4.0, {}),
            walk: (3, 3, 2.0, 3.0, {}),
            # 6 s of sum(): 3 s called from pricing, 1 s from the walk,
            # 1.5 s from the standard library, 0.5 s from no caller
            builtin: (9, 9, 6.0, 6.0, {
                price: (4, 4, 3.0, 3.0),
                walk: (3, 3, 1.0, 1.0),
                dumps: (2, 2, 1.5, 1.5),
            }),
            dumps: (1, 1, 0.25, 1.75, {price: (1, 1, 0.25, 1.75)}),
        }))
        rows = {r["layer"]: r for r in table["rows"]}
        assert rows["runtime.stats"]["self_s"] == pytest.approx(4.25)
        assert rows["runtime.stats"]["calls"] == 2
        assert rows["ir"]["self_s"] == pytest.approx(3.0)
        assert rows["ir"]["calls"] == 3
        assert [r["layer"] for r in table["rows"]] == ["runtime.stats", "ir"]
        assert table["unattributed_s"] == pytest.approx(2.0)
        assert table["total_s"] == pytest.approx(9.25)
        assert table["coverage"] == pytest.approx(1.0 - 2.0 / 9.25)

    def test_empty_capture(self):
        assert layer_table(_stats({})) == {
            "rows": [], "unattributed_s": 0.0, "total_s": 0.0,
            "coverage": 0.0,
        }

    @pytest.mark.parametrize(
        "run_kw",
        [{}, {"collective": CollectiveConfig()}, {"backend": "memory"}],
        ids=["independent", "collective", "memory"],
    )
    def test_rows_sum_to_the_capture_and_cover_it(self, run_kw):
        def profiled(profile):
            return run_version_parallel(
                _cfg("adi"), N_NODES, params=PARAMS, profile=profile,
                **run_kw,
            )

        # lazy imports (numpy.ma on the collective path) finish first:
        # they are real time outside repro, but not this run shape's
        profiled(None)
        packages = {"ir", "linalg", "transforms", "obs", "engine",
                    "runtime", "collective", "faults", "experiments"}
        coverages = []
        # coverage is a ratio of wall-clock measurements over a few
        # tens of milliseconds: one preempted numpy call can dent a
        # single capture, so the claim is about the best of three
        while len(coverages) < 3 and max(coverages, default=0.0) < 0.75:
            result = profiled(ProfileConfig(cprofile=True)).profile
            table = result.layers
            for row in table["rows"]:
                assert row["layer"] in LAYERS or row["layer"] in packages
                assert row["self_s"] >= 0.0 and row["calls"] >= 0
            capture_total = sum(v[2] for v in result.pstats.stats.values())
            assert table["total_s"] == pytest.approx(capture_total, abs=1e-9)
            assert sum(r["self_s"] for r in table["rows"]) + table[
                "unattributed_s"
            ] == pytest.approx(capture_total, abs=1e-9)
            assert table["rows"] == sorted(
                table["rows"], key=lambda r: (-r["self_s"], r["layer"])
            )
            coverages.append(table["coverage"])
        assert max(coverages) >= 0.75, coverages


class TestOneMechanism:
    """The hand-placed recorder and its wrapper/body pairs are gone."""

    def test_no_recorder_in_the_profile_module(self):
        for name in ("ACTIVE", "timed", "HotspotRecorder"):
            assert not hasattr(prof_mod, name), name
        assert [f.name for f in fields(ProfileConfig)] == ["cprofile", "top"]

    def test_no_wrapper_bodies(self):
        import repro.runtime.stats as stats_mod
        from repro.cache.tile_cache import TileCache
        from repro.runtime import IOContext

        assert not hasattr(stats_mod, "_plan_runs_impl")
        assert not hasattr(IOContext, "_record_call")
        assert not hasattr(IOContext, "_record_runs")
        assert hasattr(IOContext, "_record_runs_faulty")
        assert not hasattr(TileCache, "_lookup")


@pytest.mark.parametrize("top", [0, -1])
def test_top_must_be_positive(top):
    # -1 used to drop the last row and print a wrong "N more" count
    with pytest.raises(ValueError, match="top must be a positive integer"):
        ProfileConfig(top=top)
    with pytest.raises(ValueError, match="top must be a positive integer"):
        render_profile({"work": {}}, top=top)


class TestCollapsedValidation:
    def test_rejects_zero_count(self):
        with pytest.raises(ValueError, match="line 0"):
            validate_collapsed(["a;b 0"])

    def test_rejects_missing_count(self):
        with pytest.raises(ValueError):
            validate_collapsed(["justaframe"])

    def test_rejects_empty_frame(self):
        with pytest.raises(ValueError):
            validate_collapsed(["a;;b 5"])

    def test_rejects_space_in_stack(self):
        with pytest.raises(ValueError):
            validate_collapsed(["a b;c 5"])

    def test_accepts_valid(self):
        validate_collapsed(["main;work 120", "main 3"])


class TestDeterminism:
    """Work counters are bit-identical across repeat runs — the
    property that lets the regression gate exact-match them."""

    def _executor_work(self, workload):
        cfg = _cfg(workload)
        run = OOCExecutor(
            cfg.program, cfg.layouts, params=PARAMS, tiling=cfg.tiling,
            storage_spec=cfg.storage_spec, profile=ProfileConfig(),
        ).run()
        return run.profile.work

    def _parallel_work(self, workload, collective=None):
        run = run_version_parallel(
            _cfg(workload), N_NODES, params=PARAMS, collective=collective,
            profile=ProfileConfig(),
        )
        return run.profile.work

    @pytest.mark.parametrize("workload", ["adi", "mxm"])
    def test_direct_executor_repeatable(self, workload):
        assert self._executor_work(workload) == self._executor_work(workload)

    @pytest.mark.parametrize("workload", ["adi", "mxm"])
    def test_independent_repeatable(self, workload):
        assert self._parallel_work(workload) == self._parallel_work(workload)

    @pytest.mark.parametrize("workload", ["adi", "mxm"])
    def test_two_phase_repeatable(self, workload):
        coll = CollectiveConfig(mode="always", simulator="event")
        a = self._parallel_work(workload, coll)
        b = self._parallel_work(workload, coll)
        assert a == b
        assert a["sim_events"] > 0

    def test_counters_are_ints(self):
        work = self._parallel_work("adi")
        for key in ("plan_runs_calls", "priced_runs", "sim_events",
                    "cache_probes"):
            assert isinstance(work[key], int)
        for v in work["python_loop_iters"].values():
            assert isinstance(v, int)


class TestOffIsBitIdentical:
    """Profiling measures and never perturbs: stats are identical on or
    off, and the obs payload differs by the profile's own sections only
    — the acceptance pin on adi and mxm."""

    @pytest.mark.parametrize("workload", ["adi", "mxm"])
    def test_stats_identical(self, workload):
        base = run_version_parallel(_cfg(workload), N_NODES, params=PARAMS)
        on = run_version_parallel(
            _cfg(workload), N_NODES, params=PARAMS, profile=ProfileConfig(),
        )
        assert base.profile is None
        assert on.time_s == base.time_s
        # profiling measures; it must never change the accounting
        assert _stats_fields(on.total_stats) == _stats_fields(
            base.total_stats
        )

    @pytest.mark.parametrize("workload", ["adi", "mxm"])
    def test_obs_payload_identical(self, workload):
        # wall-time spans are real clock measurements and never repeat
        # exactly; everything else in the payload is modeled and must be
        # byte-identical once the profile's own sections are set aside
        from repro.obs import ObsConfig

        def payload(profile):
            obs = Observability(ObsConfig(wall_time=False))
            run_version_parallel(
                _cfg(workload), N_NODES, params=PARAMS, obs=obs,
                profile=profile,
            )
            p = obs.to_payload()
            p.pop("profile", None)
            p["metrics"] = {
                k: v for k, v in p["metrics"].items()
                if not k.startswith("work.")
            }
            return json.dumps(p, sort_keys=True, default=str)

        assert payload(None) == payload(ProfileConfig())

    def test_profiled_payload_adds_only_profile_and_work(self):
        obs_off = Observability()
        run_version_parallel(_cfg("adi"), N_NODES, params=PARAMS, obs=obs_off)
        obs_on = Observability()
        run_version_parallel(
            _cfg("adi"), N_NODES, params=PARAMS, obs=obs_on,
            profile=ProfileConfig(),
        )
        off_p = obs_off.to_payload()
        on_p = obs_on.to_payload()
        assert "profile" not in off_p
        assert "profile" in on_p
        extra = {
            k for k in on_p["metrics"] if k not in off_p["metrics"]
        }
        assert extra == {
            k for k in on_p["metrics"] if k.startswith("work.")
        }


class TestParallelProfile:
    def test_work_published_into_metrics(self):
        obs = Observability()
        run = run_version_parallel(
            _cfg("adi"), N_NODES, params=PARAMS, obs=obs,
            profile=ProfileConfig(),
        )
        work = run.profile.work
        reg = dict(obs.metrics.items())
        assert reg["work.plan_runs_calls"].value == work["plan_runs_calls"]
        assert reg["work.priced_runs"].value == work["priced_runs"]
        for phase, n in work["python_loop_iters"].items():
            key = f"work.python_loop_iters{{phase={phase}}}"
            assert reg[key].value == n

    def test_span_aggregation_section(self):
        obs = Observability()
        run = run_version_parallel(
            _cfg("adi"), N_NODES, params=PARAMS, obs=obs,
            profile=ProfileConfig(),
        )
        names = {r.name for r in run.profile.hotspots.spans}
        assert any(n.startswith("rank ") for n in names)


class TestRender:
    def test_render_includes_counters_and_share(self):
        run = run_version_parallel(
            _cfg("adi"), N_NODES, params=PARAMS,
            profile=ProfileConfig(cprofile=True),
        )
        text = run.profile.render_top()
        # shares are of the whole capture, never of hand-picked sites
        # (the retired "pricing stack share" misaimed a round, ROADMAP)
        assert "wall time by layer" in text
        assert "unattributed" in text
        assert f"coverage {run.profile.layers['coverage']:.3f}" in text
        assert "pricing stack share" not in text
        assert "work.plan_runs_calls" in text
        assert "work.python_loop_iters{phase=element}" in text

    def test_render_without_cprofile_has_no_layer_table(self):
        run = run_version_parallel(
            _cfg("adi"), N_NODES, params=PARAMS, profile=ProfileConfig(),
        )
        assert "layers" not in run.profile.to_dict()
        text = run.profile.render_top()
        assert "wall time by layer" not in text
        assert "work.plan_runs_calls" in text

    def test_render_round_trips_through_json(self):
        run = run_version_parallel(
            _cfg("adi"), N_NODES, params=PARAMS,
            profile=ProfileConfig(cprofile=True),
        )
        blob = json.loads(json.dumps(run.profile.to_dict()))
        assert blob == run.profile.to_dict()
        assert render_profile(blob) == run.profile.render_top()

    def test_render_empty_capture(self):
        assert "empty capture" in render_profile(
            {"hotspots": {"spans": []}, "work": {}}
        )

    def test_truncation(self):
        spans = [
            {"name": f"s{i}", "count": 1, "total_s": 1.0, "self_s": 1.0}
            for i in range(30)
        ]
        layers = {
            "rows": [
                {"layer": f"l{i}", "self_s": 1.0, "calls": 1}
                for i in range(8)
            ],
            "unattributed_s": 2.0, "total_s": 10.0, "coverage": 0.8,
        }
        text = render_profile(
            {"hotspots": {"spans": spans}, "layers": layers, "work": {}},
            top=5,
        )
        assert "25 more span name(s)" in text
        assert "3 more layer(s)" in text
        # the remainder and the coverage line survive truncation
        assert "unattributed" in text and "coverage 0.800" in text
        assert "l4" in text and "l5" not in text


class TestProfileCLI:
    def test_profile_and_top(self, tmp_path, capsys):
        from repro.obs.cli import main

        trace = tmp_path / "t.json"
        folded = tmp_path / "p.folded"
        assert main([
            "profile", "--workload", "adi", "--n", str(N),
            "--nodes", str(N_NODES), "--folded", str(folded),
            "--out", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "wall time by layer" in out and "coverage" in out
        validate_collapsed(
            [ln for ln in folded.read_text().splitlines() if ln]
        )
        assert main(["top", str(trace)]) == 0
        assert "work.plan_runs_calls" in capsys.readouterr().out

    def test_live_trace_and_journal_print_the_same_table(
        self, tmp_path, capsys
    ):
        # one capture, one payload, one renderer: the layer table is
        # captured without --folded and replays from either file
        from repro.obs.cli import main

        trace, journal = tmp_path / "t.json", tmp_path / "t.jsonl"
        assert main([
            "profile", "--workload", "adi", "--n", str(N),
            "--nodes", str(N_NODES), "--out", str(trace),
            "--journal", str(journal),
        ]) == 0
        live = capsys.readouterr().out
        assert main(["top", str(trace)]) == 0
        from_trace = capsys.readouterr().out
        assert main(["top", str(journal)]) == 0
        from_journal = capsys.readouterr().out
        assert "wall time by layer" in from_trace
        assert from_trace == from_journal
        assert from_trace in live

    @pytest.mark.parametrize("command", ["capture", "profile", "bounds"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--nodes", "0", "n_nodes must be a positive integer, got 0"),
            ("--nodes", "-1", "n_nodes must be a positive integer, got -1"),
            ("--n", "0", "non-positive extent"),
        ],
    )
    def test_bad_size_exits_2_with_one_line(
        self, command, flag, value, message, tmp_path, capsys
    ):
        from repro.obs.cli import main

        out = tmp_path / "t.json"
        assert main([command, flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["capture", "profile"])
    def test_bad_nodes_leaves_no_journal(self, command, tmp_path, capsys):
        from repro.obs.cli import main

        journal = tmp_path / "run.jsonl"
        assert main([
            command, "--workload", "adi", "--n", "8", "--nodes", "0",
            "--journal", str(journal),
        ]) == 2
        assert capsys.readouterr().err.startswith("error: n_nodes must be")
        assert not journal.exists()

    def test_static_bounds_bad_nodes_exits_2(self, capsys):
        from repro.obs.cli import main

        assert main([
            "bounds", "--workload", "adi", "--n", "8", "--static",
            "--nodes", "0",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: n_nodes must be a positive integer, got 0\n"
        )

    def test_top_zero_exits_2(self, tmp_path, capsys):
        from repro.obs.cli import main

        assert main(["profile", "--top", "0"]) == 2
        assert "top must be a positive integer" in capsys.readouterr().err
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"profile": {"work": {}}}))
        assert main(["top", str(path), "--top", "0"]) == 2
        assert "top must be a positive integer" in capsys.readouterr().err

    def test_profile_unknown_workload_exits_2(self, capsys):
        from repro.obs.cli import main

        assert main(["profile", "--workload", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_profile_unknown_version_exits_2(self, capsys):
        from repro.obs.cli import main

        assert main(["profile", "--version", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_top_without_profile_section_exits_2(self, tmp_path, capsys):
        from repro.obs.cli import main

        path = tmp_path / "t.json"
        path.write_text("{}")
        assert main(["top", str(path)]) == 2
        assert "no profile section" in capsys.readouterr().err

    def test_top_missing_file_exits_2(self, tmp_path):
        from repro.obs.cli import main

        assert main(["top", str(tmp_path / "no.json")]) == 2

    def test_top_malformed_json_exits_2(self, tmp_path):
        from repro.obs.cli import main

        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["top", str(path)]) == 2
