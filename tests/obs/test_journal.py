"""Streaming JSONL telemetry (repro.obs.journal): append-only emission,
contract-validating reads, replay into report payloads and
regress-checkable documents, and the CLI surface."""

import hashlib
import io
import json

import pytest

from dataclasses import replace

from repro.experiments.harness import _scaled_params
from repro.obs import (
    Journal,
    JournalError,
    Observability,
    doc_from_journal,
    payload_from_journal,
    read_journal,
)
from repro.obs.cli import main
from repro.optimizer import build_version
from repro.parallel import run_version_parallel
from repro.workloads import build_workload

N = 24
PARAMS = replace(_scaled_params(N), n_io_nodes=4)
N_NODES = 4


class TestJournal:
    def test_emit_read_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(str(path)) as j:
            j.emit("stats", data={"calls": 3})
            j.emit("nest_io", nest="adi.x", array="U1")
        events = read_journal(str(path))
        assert [e["seq"] for e in events] == [0, 1]
        assert [e["kind"] for e in events] == ["stats", "nest_io"]
        assert events[0]["data"] == {"calls": 3}

    def test_lines_are_sorted_key_json(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(str(path)) as j:
            j.emit("stats", zebra=1, alpha=2)
        line = path.read_text().strip()
        assert line == json.dumps(
            json.loads(line), sort_keys=True
        )
        assert line.index('"alpha"') < line.index('"zebra"')

    def test_append_mode_extends(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(str(path)) as j:
            j.emit("stats")
        with Journal(str(path)) as j:
            j.emit("stats")
        assert len(read_journal(str(path))) == 2

    def test_default_flush_every_event(self):
        buf = io.StringIO()
        j = Journal(buf)
        j.emit("a")
        assert len(buf.getvalue().splitlines()) == 1

    def test_file_like_not_closed(self):
        buf = io.StringIO()
        with Journal(buf) as j:
            j.emit("a")
        assert not buf.closed


class TestReadJournal:
    def test_blank_lines_skipped(self):
        buf = io.StringIO('{"seq": 0, "kind": "a"}\n\n\n')
        assert len(read_journal(buf)) == 1

    def test_malformed_json_names_line(self):
        buf = io.StringIO('{"seq": 0, "kind": "a"}\n{oops\n')
        with pytest.raises(JournalError, match="line 2"):
            read_journal(buf)

    def test_non_object_line_rejected(self):
        with pytest.raises(JournalError, match="not a JSON object"):
            read_journal(io.StringIO("[1, 2]\n"))

    def test_missing_kind_rejected(self):
        with pytest.raises(JournalError, match="kind"):
            read_journal(io.StringIO('{"seq": 0}\n'))


class TestReplay:
    def test_payload_accumulates_and_last_wins(self):
        events = [
            {"seq": 0, "kind": "nest_io", "nest": "a", "array": "X"},
            {"seq": 1, "kind": "stats", "data": {"calls": 1}},
            {"seq": 2, "kind": "nest_io", "nest": "b", "array": "Y"},
            {"seq": 3, "kind": "redist", "nest": "a", "messages": 2},
            {"seq": 4, "kind": "stats", "data": {"calls": 9}},
            {"seq": 5, "kind": "custom", "whatever": True},
        ]
        payload = payload_from_journal(events)
        assert [r["nest"] for r in payload["io_report"]["records"]] == [
            "a", "b",
        ]
        assert payload["io_report"]["redist"][0]["messages"] == 2
        assert payload["stats"] == {"calls": 9}
        assert "custom" not in payload

    def test_doc_from_journal_folds_results(self):
        events = [
            {"seq": 0, "kind": "doc_meta", "smoke": True, "machine": "m"},
            {"seq": 1, "kind": "result", "name": "bench_a",
             "payload": {"x": 1}, "meta": {"n": 8}},
            {"seq": 2, "kind": "result", "name": "bench_b",
             "payload": {"y": 2}},
        ]
        doc = doc_from_journal(events)
        assert doc["smoke"] is True
        assert doc["machine"] == "m"
        assert doc["results"] == {"bench_a": {"x": 1}, "bench_b": {"y": 2}}
        assert doc["meta"] == {"bench_a": {"n": 8}}

    def test_result_without_name_rejected(self):
        with pytest.raises(JournalError, match="name"):
            doc_from_journal([{"seq": 0, "kind": "result", "payload": {}}])


def _adi():
    return build_version("c-opt", build_workload("adi", N))


#: sha256 of the OpenMetrics text a journal of ``_adi()`` on ``N_NODES``
#: re-renders (the 52 lines of its drift and optimality gauges),
#: recorded before the package stopped shipping an OpenMetrics parser
ADI_OPENMETRICS_SHA256 = (
    "c97a0ed63153d468a5b9029a7c43f9f8a4f1109847c070bf559f6e161b7d00fb"
)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _lone_executor(obs):
    from repro.engine import OOCExecutor

    cfg = _adi()
    OOCExecutor(
        cfg.program, cfg.layouts, params=PARAMS, tiling=cfg.tiling,
        storage_spec=cfg.storage_spec, obs=obs,
    ).run()


def _two_phase(obs):
    from repro.collective import CollectiveConfig

    run_version_parallel(
        _adi(), N_NODES, params=PARAMS, obs=obs, collective=CollectiveConfig()
    )


def _faulty(obs):
    from repro.faults import FaultConfig, FaultPlan, ResiliencePolicy

    faults = FaultConfig(
        FaultPlan(seed=7, read_error_rate=0.02, stragglers={0: 4.0}),
        ResiliencePolicy(max_retries=4, hedge_reads=True),
    )
    run_version_parallel(_adi(), N_NODES, params=PARAMS, obs=obs, faults=faults)


def _serve_replay(obs):
    from repro.serve import (
        ClusterProfile, JobSpec, TenantConfig, WorkloadScript, serve_script,
    )

    profile = ClusterProfile(
        n_compute_nodes=2, params=PARAMS,
        tenants=(TenantConfig("b"), TenantConfig("a")),
    )
    jobs = (JobSpec("b", "trans", n=12), JobSpec("a", "adi", n=12))
    serve_script(profile, WorkloadScript(seed=0, jobs=jobs), obs=obs)


def _autotune_round(obs):
    from repro.autotune import Autotuner

    tuner = Autotuner(
        build_workload("adi", N), params=PARAMS, n_nodes=N_NODES, obs=obs
    )
    tuner.solve()
    tuner.observe(tuner.run_once())


def _profiled(obs):
    from repro.obs import ProfileConfig

    run_version_parallel(
        _adi(), N_NODES, params=PARAMS, obs=obs, profile=ProfileConfig()
    )


RUN_SHAPES = {
    "lone-executor": _lone_executor,
    "independent-spmd": lambda obs: run_version_parallel(
        _adi(), N_NODES, params=PARAMS, obs=obs
    ),
    "two-phase-event-sim": _two_phase,
    "faults": _faulty,
    "serve-replay": _serve_replay,
    "autotune-round": _autotune_round,
    "profile": _profiled,
}


class TestOneTelemetryPath:
    """The journal is the live path, not a copy of it: whatever ran,
    the replayed payload *is* the exported one, and every CLI route to
    the report prints the same text."""

    @pytest.mark.parametrize("shape", sorted(RUN_SHAPES))
    def test_replay_is_the_exported_payload(self, shape, tmp_path, capsys):
        path, trace = str(tmp_path / "run.jsonl"), str(tmp_path / "t.json")
        with Observability(journal=path) as obs:
            RUN_SHAPES[shape](obs)
            obs.export(trace)
            live = json.loads(json.dumps(obs.to_payload()))
        replayed = payload_from_journal(read_journal(path))
        assert replayed.keys() == live.keys()
        for key in live:
            assert replayed[key] == live[key], key
        texts = []
        for argv in (
            ["report", trace], ["report", path], ["journal", path, "--report"],
        ):
            assert main(argv) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] == texts[2]
        assert "cross-check vs folded IOStats" in texts[0] \
            or shape == "serve-replay"

    def test_replay_carries_the_derived_tables_and_sim_line(
        self, tmp_path, capsys
    ):
        # the three sections a PR-9 journal silently dropped
        path = str(tmp_path / "run.jsonl")
        with Observability(journal=path) as obs:
            _two_phase(obs)
        assert main(["journal", path, "--report"]) == 0
        out = capsys.readouterr().out
        assert "cost-model drift" in out
        assert "optimality (achieved vs I/O lower bound" in out
        assert "event sim: makespan=" in out

    def test_top_reads_a_journal(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        with Observability(journal=path) as obs:
            _profiled(obs)
        assert main(["top", path]) == 0
        assert "work.plan_runs_calls" in capsys.readouterr().out

    def test_malformed_known_kind_is_a_named_error(self, tmp_path, capsys):
        with pytest.raises(JournalError, match="seq=3"):
            payload_from_journal(
                [{"seq": 3, "kind": "predictions", "data": [1, 2]}]
            )
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"seq": 0, "kind": "nest_io", "bogus": 1}\n')
        assert main(["report", str(bad)]) == 2
        assert "malformed" in capsys.readouterr().err


class TestObservabilityJournal:
    def _run(self, obs):
        run_version_parallel(_adi(), N_NODES, params=PARAMS, obs=obs)

    def test_streams_while_running(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Observability(journal=str(path)) as obs:
            self._run(obs)
            # no export() yet: records and stats already hit the file
            kinds = {e["kind"] for e in read_journal(str(path))}
            assert {"nest_io", "stats", "predictions", "bounds"} <= kinds
            assert "metrics" not in kinds
            obs.export(str(tmp_path / "t.json"))
            kinds = {e["kind"] for e in read_journal(str(path))}
            assert {"metrics", "trace_events"} <= kinds

    def test_replay_matches_export(self, tmp_path):
        path = tmp_path / "run.jsonl"
        trace = tmp_path / "t.json"
        with Observability(journal=str(path)) as obs:
            self._run(obs)
            obs.export(str(trace))
        assert payload_from_journal(read_journal(str(path))) == \
            json.loads(trace.read_text())

    def test_export_then_close_snapshots_once(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Observability(journal=str(path)) as obs:
            self._run(obs)
            obs.export(str(tmp_path / "t.json"))
        kinds = [e["kind"] for e in read_journal(str(path))]
        assert kinds.count("metrics") == kinds.count("trace_events") == 1

    def test_in_memory_log_is_the_journal(self):
        buf = io.StringIO()
        obs = Observability(journal=buf)
        self._run(obs)
        obs.close()
        streamed = read_journal(io.StringIO(buf.getvalue()))
        assert [e.pop("seq") for e in streamed] == list(range(len(streamed)))
        assert streamed == json.loads(json.dumps(obs.events))

    def test_views_are_read_only_folds(self):
        obs = Observability()
        assert obs.run_stats is None and obs.profile is None
        self._run(obs)
        assert obs.run_stats == obs.to_payload()["stats"]
        obs.report.records.clear()          # a copy: the log is the state
        assert obs.report.records
        with pytest.raises(AttributeError):
            obs.run_stats = {}

    def test_no_journal_is_none(self):
        obs = Observability()
        assert obs.journal is None


class TestClose:
    """``Observability(journal="path")`` owns the file it opened."""

    def test_path_journal_closed_without_resource_warning(self, tmp_path):
        import gc
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with Observability(journal=str(tmp_path / "run.jsonl")) as obs:
                obs.note_sim({"makespan_s": 1.0})
            handle = obs.journal._f
            del obs
            gc.collect()
        assert handle.closed

    def test_handed_journal_and_file_stay_open(self, tmp_path):
        buf = io.StringIO()
        Observability(journal=buf).close()
        assert not buf.closed
        with Journal(str(tmp_path / "j.jsonl")) as j:
            Observability(journal=j).close()
            j.emit("still-open")

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "run.jsonl"
        obs = Observability(journal=str(path))
        obs.close()
        obs.close()
        assert len(read_journal(str(path))) == 2

    def test_openmetrics_of_closed_never_exported_run(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        with Observability(journal=path) as obs:
            run_version_parallel(_adi(), N_NODES, params=PARAMS, obs=obs)
        assert main(["journal", path, "--openmetrics"]) == 0
        text = capsys.readouterr().out
        assert _sha(text) == ADI_OPENMETRICS_SHA256
        assert "optimality_run_ratio" in text


class TestRegressOnJournal:
    def _write_baseline(self, tmp_path, results):
        from repro.obs.baselines import make_envelope

        doc = make_envelope(results, smoke=True)
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _write_journal(self, tmp_path, results):
        path = tmp_path / "run.jsonl"
        with Journal(str(path)) as j:
            j.emit("doc_meta", smoke=True)
            for name, payload in results.items():
                j.emit("result", name=name, payload=payload)
        return str(path)

    def test_check_passes_on_matching_journal(self, tmp_path, capsys):
        results = {"bench": {"calls": 42, "time_s": 1.5}}
        b = self._write_baseline(tmp_path, results)
        c = self._write_journal(tmp_path, results)
        assert main(["regress", "check", b, c]) == 0

    def test_check_fails_on_counter_drift(self, tmp_path, capsys):
        b = self._write_baseline(tmp_path, {"bench": {"calls": 42}})
        c = self._write_journal(tmp_path, {"bench": {"calls": 43}})
        assert main(["regress", "check", b, c]) == 1

    def test_missing_journal_exits_2(self, tmp_path):
        b = self._write_baseline(tmp_path, {"bench": {"calls": 1}})
        assert main([
            "regress", "check", b, str(tmp_path / "no.jsonl"),
        ]) == 2

    def test_malformed_journal_exits_2(self, tmp_path, capsys):
        b = self._write_baseline(tmp_path, {"bench": {"calls": 1}})
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        assert main(["regress", "check", b, str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestJournalCLI:
    def _journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Observability(journal=str(path)) as obs:
            run_version_parallel(_adi(), N_NODES, params=PARAMS, obs=obs)
        return str(path)

    def test_summary(self, tmp_path, capsys):
        path = self._journal(tmp_path)
        assert main(["journal", path]) == 0
        out = capsys.readouterr().out
        assert "event(s)" in out and "nest_io" in out

    def test_report_replay(self, tmp_path, capsys):
        path = self._journal(tmp_path)
        assert main(["journal", path, "--report"]) == 0
        out = capsys.readouterr().out
        assert "nest" in out

    def test_emit_doc(self, tmp_path, capsys):
        path = tmp_path / "r.jsonl"
        with Journal(str(path)) as j:
            j.emit("result", name="bench", payload={"x": 1})
        assert main(["journal", str(path), "--emit-doc"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"] == {"bench": {"x": 1}}

    def test_openmetrics_from_journal(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        with Observability(journal=str(path)) as obs:
            run_version_parallel(_adi(), N_NODES, params=PARAMS, obs=obs)
            obs.export(str(tmp_path / "t.json"))
        assert main(["journal", str(path), "--openmetrics"]) == 0
        text = capsys.readouterr().out
        assert _sha(text) == ADI_OPENMETRICS_SHA256
        assert text.rstrip().endswith("# EOF")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["journal", str(tmp_path / "no.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["journal", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
