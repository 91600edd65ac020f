"""Per-nest × per-array report records: totals, aggregation, rendering."""

from repro.obs import (
    IOReport,
    NestIORecord,
    RedistRecord,
    io_record,
    nest_records,
    render_report,
    report_totals,
)
from repro.runtime import IOStats, MachineParams


def _records():
    return [
        NestIORecord("n1", "A", read_calls=4, elements_read=40,
                     node=0, path="independent"),
        NestIORecord("n1", "A", read_calls=6, elements_read=60,
                     node=1, path="independent"),
        NestIORecord("n1", "B", write_calls=2, elements_written=20,
                     node=0, path="independent"),
        NestIORecord("n2", "A", read_calls=3, write_calls=3,
                     elements_read=30, elements_written=30,
                     node=0, path="two-phase"),
    ]


class TestTotals:
    def test_sums_every_counter(self):
        totals = report_totals(_records())
        assert totals == {
            "read_calls": 13,
            "write_calls": 5,
            "elements_read": 130,
            "elements_written": 50,
        }

    def test_empty(self):
        assert report_totals([]) == {
            "read_calls": 0,
            "write_calls": 0,
            "elements_read": 0,
            "elements_written": 0,
        }


class TestRecordConstructor:
    """``io_record`` is the only way per-array records are built: from
    traces (``nest_records``) and from the two-phase accounting."""

    def test_weight_repeats_counts_and_time(self):
        p = MachineParams()
        one = io_record(p, "n", "A", 2, "two-phase", (3, 1, 30, 8))
        rep = io_record(p, "n", "A", 2, "two-phase", (3, 1, 30, 8), 5)
        assert (one.read_calls, one.write_calls) == (3, 1)
        assert (one.elements_read, one.elements_written) == (30, 8)
        assert one.io_time_s == p.batch_time(4, 38)
        assert (rep.read_calls, rep.write_calls) == (15, 5)
        assert (rep.elements_read, rep.elements_written) == (150, 40)
        assert rep.io_time_s == one.io_time_s * 5
        assert (rep.node, rep.path) == (2, "two-phase")

    def test_nest_records_totals_equal_trace(self):
        from repro.engine.executor import NestRun

        trace = [(0, 0, 8, False), (0, 16, 4, True), (100, 0, 6, False)]
        nr = NestRun("n", None, IOStats(), 1, trace=trace, trace_weight=3)
        recs = nest_records(MachineParams(), [nr], {0: "A"}, node=1)
        assert [r.array for r in recs] == ["A", "file@100"]
        assert report_totals(recs) == {
            "read_calls": 6, "write_calls": 3,
            "elements_read": 42, "elements_written": 12,
        }
        assert all(r.node == 1 and r.path == "direct" for r in recs)


class TestRender:
    def test_per_rank_rows_collapse(self):
        text = render_report(IOReport(records=_records()))
        lines = [l for l in text.splitlines() if l.startswith("n1")]
        # two ranks of (n1, A) collapse into one row
        assert len(lines) == 2
        row_a = next(l for l in lines if " A " in l)
        assert " 10 " in row_a and " 100 " in row_a

    def test_total_row_present(self):
        text = render_report(IOReport(records=_records()))
        total = next(
            l for l in text.splitlines() if l.startswith("TOTAL")
        )
        assert "13" in total and "130" in total

    def test_cross_check_exact_match(self):
        stats = {
            "read_calls": 13, "write_calls": 5,
            "elements_read": 130, "elements_written": 50,
        }
        text = render_report(IOReport(records=_records()), stats)
        assert "exact match" in text

    def test_cross_check_flags_mismatch(self):
        stats = {
            "read_calls": 12, "write_calls": 5,
            "elements_read": 130, "elements_written": 50,
        }
        text = render_report(IOReport(records=_records()), stats)
        assert "MISMATCH" in text

    def test_redist_lines(self):
        report = IOReport(
            records=_records(),
            redist=[RedistRecord("n2", messages=8, elements=80,
                                 time_s=0.5)],
        )
        text = render_report(report)
        assert "redist n2: 8 messages, 80 elements, 0.500s" in text

    def test_conflicting_paths_marked_mixed(self):
        recs = [
            NestIORecord("n", "A", read_calls=1, path="independent"),
            NestIORecord("n", "A", read_calls=1, path="two-phase"),
        ]
        text = render_report(IOReport(records=recs))
        assert "mixed" in text


class TestRoundTrip:
    def test_report_dict_round_trip(self):
        report = IOReport(
            records=_records(),
            redist=[RedistRecord("n2", 8, 80, 0.5)],
        )
        back = IOReport.from_dict(report.to_dict())
        assert back == report

    def test_via_json(self):
        import json

        report = IOReport(records=_records())
        back = IOReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert back == report
