"""Hotspot profiler + deterministic work counters (repro.obs.profile).

The load-bearing guarantees:

- work counters are **bit-identical** across repeat runs, on the
  direct-executor, independent-parallel and two-phase-collective paths;
- ``profile=None`` (the default — the one spelling of "off") leaves
  stats bit-identical, and profiling adds only the ``profile`` section
  and the ``work.*`` metrics to an obs payload;
- the hotspot table separates self from cumulative time and the
  collapsed-stack export validates against the folded format rules.
"""

import json

import pytest

from dataclasses import replace

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
from repro.obs.profile import HotspotRecorder, HotspotTable, capture, timed
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


class TestHotspotRecorder:
    def test_self_time_excludes_children(self):
        t = [0.0]

        def clock():
            return t[0]

        rec = HotspotRecorder(clock)
        rec.begin("outer")
        t[0] = 1.0
        rec.begin("inner")
        t[0] = 3.0
        rec.end()          # inner: 2s self
        t[0] = 4.0
        rec.end()          # outer: 4s total, 2s self
        table = HotspotTable.from_recorder(rec)
        rows = {r.name: r for r in table.sites}
        assert rows["inner"].self_s == pytest.approx(2.0)
        assert rows["inner"].total_s == pytest.approx(2.0)
        assert rows["outer"].total_s == pytest.approx(4.0)
        assert rows["outer"].self_s == pytest.approx(2.0)

    def test_add_leaf_credits_parent(self):
        t = [0.0]
        rec = HotspotRecorder(lambda: t[0])
        rec.begin("outer")
        rec.add("leaf", 1.5, count=3)
        t[0] = 2.0
        rec.end()
        rows = {r.name: r for r in HotspotTable.from_recorder(rec).sites}
        assert rows["leaf"].count == 3
        assert rows["leaf"].self_s == pytest.approx(1.5)
        assert rows["outer"].self_s == pytest.approx(0.5)

    def test_timed_without_active_recorder_is_passthrough(self):
        assert prof_mod.ACTIVE is None
        assert timed("site", lambda a, b: a + b, 2, 3) == 5


class TestProfileSession:
    def test_activate_restores_previous(self):
        assert prof_mod.ACTIVE is None
        s = ProfileSession(ProfileConfig())
        s.activate()
        assert prof_mod.ACTIVE is s.recorder
        inner = ProfileSession(ProfileConfig())
        inner.activate()
        assert prof_mod.ACTIVE is inner.recorder
        inner.deactivate()
        assert prof_mod.ACTIVE is s.recorder
        s.deactivate()
        assert prof_mod.ACTIVE is None

    def test_reentrant_depth(self):
        s = ProfileSession(ProfileConfig())
        with s:
            with s:
                assert prof_mod.ACTIVE is s.recorder
            # still active: the SPMD driver holds the session across
            # per-rank executor runs
            assert prof_mod.ACTIVE is s.recorder
        assert prof_mod.ACTIVE is None

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


class TestCapture:
    """The one ownership rule both entry points share."""

    def test_none_and_disabled_never_activate(self):
        # "off" is None; a config with the site recorder disabled still
        # counts work but never binds the clock-reading recorder
        with capture(None) as cap:
            assert prof_mod.ACTIVE is None
        assert cap.result is None
        with capture(ProfileConfig(hotspots=False)) as cap:
            assert prof_mod.ACTIVE is None
        assert cap.result.hotspots.sites == []

    def test_config_is_owned_finished_and_published(self):
        obs = Observability()
        with capture(ProfileConfig(), obs) as cap:
            assert prof_mod.ACTIVE is not None
            assert cap.result is None
            prof_mod.WORK.sim_events += 4
        assert prof_mod.ACTIVE is None
        assert cap.result.work["sim_events"] == 4
        assert obs.metrics.to_dict()["work.sim_events"]["value"] == 4
        assert obs.to_payload()["profile"]["work"]["sim_events"] == 4

    def test_session_is_borrowed_not_finished(self):
        s = ProfileSession(ProfileConfig())
        with s:
            with capture(s) as cap:
                assert prof_mod.ACTIVE is s.recorder
            assert prof_mod.ACTIVE is s.recorder  # caller still holds it
        assert cap.result is None
        assert prof_mod.ACTIVE is None

    def test_raising_block_deactivates(self):
        with pytest.raises(RuntimeError):
            with capture(ProfileConfig()) as cap:
                raise RuntimeError("boom")
        assert prof_mod.ACTIVE is None
        assert cap.result is None


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

    def test_caller_owned_session_not_finished_by_driver(self):
        session = ProfileSession(ProfileConfig())
        with session:
            run = run_version_parallel(
                _cfg("adi"), N_NODES, params=PARAMS, profile=session,
            )
        assert run.profile is None
        result = session.finish()
        assert result.work["plan_runs_calls"] > 0

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
            _cfg("adi"), N_NODES, params=PARAMS, profile=ProfileConfig(),
        )
        text = run.profile.render_top()
        # the share of *instrumented* self time misaimed a whole round
        # (ROADMAP) and is retired; perfbench's layer table replaces it
        assert "hotspots (repro.obs.profile)" in text
        assert "pricing stack share" not in text
        assert "work.plan_runs_calls" in text
        assert "work.python_loop_iters{phase=element}" in text

    def test_render_round_trips_through_json(self):
        run = run_version_parallel(
            _cfg("adi"), N_NODES, params=PARAMS, profile=ProfileConfig(),
        )
        blob = json.loads(json.dumps(run.profile.to_dict()))
        assert render_profile(blob) == render_profile(run.profile.to_dict())

    def test_render_empty_capture(self):
        assert "empty capture" in render_profile(
            {"hotspots": {"sites": [], "spans": []}, "work": {}}
        )

    def test_truncation(self):
        rows = [
            {"name": f"s{i}", "count": 1, "total_s": 1.0, "self_s": 1.0}
            for i in range(30)
        ]
        text = render_profile(
            {"hotspots": {"sites": rows, "spans": []},
             "work": {}},
            top=5,
        )
        assert "25 more site(s)" in text


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
        assert "hotspots (repro.obs.profile)" in out
        validate_collapsed(
            [ln for ln in folded.read_text().splitlines() if ln]
        )
        assert main(["top", str(trace)]) == 0
        assert "work.plan_runs_calls" in capsys.readouterr().out

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
