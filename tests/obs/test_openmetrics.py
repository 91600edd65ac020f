"""Prometheus/OpenMetrics text exposition (repro.obs.export): format
rules, label escaping, and the exact text of a registry and of its
snapshot, recorded before the package stopped shipping a parser.  The
exposition is read back here by a format checker kept beside its tests
(nothing in the package reads OpenMetrics)."""

import pytest

from repro.obs import (
    MetricsRegistry,
    OpenMetricsError,
    registry_from_snapshot,
    render_openmetrics,
)

#: ``render_openmetrics(_registry())``, byte for byte
REGISTRY_TEXT = """\
# TYPE cache_capacity gauge
cache_capacity 4096
# TYPE io_call_size histogram
io_call_size_bucket{le="10"} 1
io_call_size_bucket{le="100"} 2
io_call_size_bucket{le="+Inf"} 3
io_call_size_sum 333.0
io_call_size_count 3
# TYPE io_read_calls counter
io_read_calls_total{node="0"} 5
io_read_calls_total{node="1"} 7
# EOF
"""

#: the same registry rebuilt from its snapshot (counter and gauge values
#: come back as floats)
SNAPSHOT_TEXT = """\
# TYPE cache_capacity gauge
cache_capacity 4096.0
# TYPE io_call_size histogram
io_call_size_bucket{le="10"} 1
io_call_size_bucket{le="100"} 2
io_call_size_bucket{le="+Inf"} 3
io_call_size_sum 333.0
io_call_size_count 3
# TYPE io_read_calls counter
io_read_calls_total{node="0"} 5.0
io_read_calls_total{node="1"} 7.0
# EOF
"""


def _parse_labels(s: str, lineno: int) -> tuple[dict[str, str], int]:
    """Parse a ``key="value",...}`` label block (``s`` starts just after
    the ``{``); returns the labels and the index just past the ``}``."""
    labels: dict[str, str] = {}
    i = 0
    try:
        while True:
            if s[i] == "}":
                return labels, i + 1
            eq = s.index("=", i)
            key = s[i:eq]
            if not key or s[eq + 1] != '"':
                raise OpenMetricsError(
                    f"line {lineno}: malformed label near {s[i:]!r}"
                )
            i = eq + 2
            buf: list[str] = []
            while True:
                c = s[i]
                if c == "\\":
                    nxt = s[i + 1]
                    buf.append(
                        {"\\": "\\", '"': '"', "n": "\n"}.get(nxt, nxt)
                    )
                    i += 2
                elif c == '"':
                    i += 1
                    break
                else:
                    buf.append(c)
                    i += 1
            labels[key] = "".join(buf)
            if s[i] == ",":
                i += 1
            elif s[i] != "}":
                raise OpenMetricsError(
                    f"line {lineno}: expected ',' or '}}' after label "
                    f"{key!r}"
                )
    except (IndexError, ValueError):
        raise OpenMetricsError(
            f"line {lineno}: unterminated label block"
        ) from None


def parse_openmetrics(text: str) -> dict[str, object]:
    """The format checker the tests read rendered text with: validate
    an exposition document and decode it into ``{"types": {family:
    type}, "samples": {(name, labels...): value}}``.  Raises
    :class:`OpenMetricsError` on format violations: unknown or
    duplicate ``# TYPE``, malformed samples, text after (or a missing)
    ``# EOF`` terminator — the ``TestParse`` cases keep it from passing
    anything."""
    types: dict[str, str] = {}
    samples: dict[tuple, float] = {}
    saw_eof = False
    for lineno, line in enumerate(text.split("\n"), start=1):
        if saw_eof:
            if line:
                raise OpenMetricsError(
                    f"line {lineno}: content after the # EOF terminator"
                )
            continue
        if not line:
            continue
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise OpenMetricsError(
                    f"line {lineno}: malformed # TYPE line: {line!r}"
                )
            fam, typ = parts[2], parts[3]
            if typ not in ("counter", "gauge", "histogram"):
                raise OpenMetricsError(
                    f"line {lineno}: unknown metric type {typ!r}"
                )
            if fam in types:
                raise OpenMetricsError(
                    f"line {lineno}: duplicate # TYPE for {fam!r}"
                )
            types[fam] = typ
            continue
        if line.startswith("#"):
            continue  # HELP/UNIT comments pass through unvalidated
        if "{" in line:
            name, rest = line.split("{", 1)
            labels, end = _parse_labels(rest, lineno)
            value_text = rest[end:].strip()
        else:
            name, sep, value_text = line.partition(" ")
            labels = {}
            if not sep:
                raise OpenMetricsError(
                    f"line {lineno}: sample has no value: {line!r}"
                )
            value_text = value_text.strip()
        if not name:
            raise OpenMetricsError(
                f"line {lineno}: sample has no metric name: {line!r}"
            )
        try:
            value = float(value_text)
        except ValueError:
            raise OpenMetricsError(
                f"line {lineno}: sample value is not a number: "
                f"{value_text!r}"
            ) from None
        samples[(name,) + tuple(sorted(labels.items()))] = value
    if not saw_eof:
        raise OpenMetricsError("missing # EOF terminator")
    return {"types": types, "samples": samples}


def _registry():
    reg = MetricsRegistry()
    reg.counter("io.read_calls", node=0).inc(5)
    reg.counter("io.read_calls", node=1).inc(7)
    reg.gauge("cache.capacity").set(4096)
    h = reg.histogram("io.call_size", bounds=(10.0, 100.0))
    h.observe_many([3, 30, 300])
    return reg


class TestRender:
    def test_type_lines_and_suffixes(self):
        text = render_openmetrics(_registry())
        lines = text.splitlines()
        assert "# TYPE io_read_calls counter" in lines
        assert "# TYPE cache_capacity gauge" in lines
        assert "# TYPE io_call_size histogram" in lines
        assert 'io_read_calls_total{node="0"} 5' in lines
        assert "cache_capacity 4096" in lines
        assert lines[-1] == "# EOF"
        assert text.endswith("\n")

    def test_one_type_line_per_family(self):
        lines = render_openmetrics(_registry()).splitlines()
        assert (
            sum(1 for l in lines if l == "# TYPE io_read_calls counter")
            == 1
        )

    def test_histogram_buckets_cumulative(self):
        text = render_openmetrics(_registry())
        lines = text.splitlines()
        assert 'io_call_size_bucket{le="10"} 1' in lines
        assert 'io_call_size_bucket{le="100"} 2' in lines
        assert 'io_call_size_bucket{le="+Inf"} 3' in lines
        assert "io_call_size_count 3" in lines
        assert "io_call_size_sum 333.0" in lines

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", tag='a"b\\c\nd').inc()
        text = render_openmetrics(reg)
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        parsed = parse_openmetrics(text)
        assert parsed["samples"][
            ("c_total", ("tag", 'a"b\\c\nd'))
        ] == 1.0

    def test_dotted_names_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("a.b-c d").inc()
        text = render_openmetrics(reg)
        assert "a_b_c_d_total 1" in text.splitlines()

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x.y").inc()
        reg.gauge("x_y").set(1)
        with pytest.raises(OpenMetricsError, match="both"):
            render_openmetrics(reg)

    def test_empty_registry_is_just_eof(self):
        assert render_openmetrics(MetricsRegistry()) == "# EOF\n"


class TestParse:
    def test_round_trip_values(self):
        text = render_openmetrics(_registry())
        assert text == REGISTRY_TEXT
        parsed = parse_openmetrics(text)
        s = parsed["samples"]
        assert s[("io_read_calls_total", ("node", "0"))] == 5.0
        assert s[("io_read_calls_total", ("node", "1"))] == 7.0
        assert s[("cache_capacity",)] == 4096.0
        assert s[("io_call_size_bucket", ("le", "+Inf"))] == 3.0
        assert parsed["types"] == {
            "io_read_calls": "counter",
            "cache_capacity": "gauge",
            "io_call_size": "histogram",
        }

    def test_missing_eof_rejected(self):
        with pytest.raises(OpenMetricsError, match="EOF"):
            parse_openmetrics("# TYPE a counter\na_total 1\n")

    def test_content_after_eof_rejected(self):
        with pytest.raises(OpenMetricsError, match="after"):
            parse_openmetrics("# EOF\na 1\n")

    def test_unknown_type_rejected(self):
        with pytest.raises(OpenMetricsError, match="unknown metric type"):
            parse_openmetrics("# TYPE a summary\n# EOF\n")

    def test_duplicate_type_rejected(self):
        with pytest.raises(OpenMetricsError, match="duplicate"):
            parse_openmetrics(
                "# TYPE a counter\n# TYPE a counter\n# EOF\n"
            )

    def test_non_numeric_value_rejected(self):
        with pytest.raises(OpenMetricsError, match="not a number"):
            parse_openmetrics("a abc\n# EOF\n")

    def test_sample_without_value_rejected(self):
        with pytest.raises(OpenMetricsError, match="no value"):
            parse_openmetrics("lonely\n# EOF\n")

    def test_unterminated_labels_rejected(self):
        with pytest.raises(OpenMetricsError, match="unterminated"):
            parse_openmetrics('a{x="1\n# EOF\n')

    def test_line_numbers_reported(self):
        with pytest.raises(OpenMetricsError, match="line 2"):
            parse_openmetrics("# TYPE a counter\na_total oops\n# EOF\n")


class TestSnapshotRoundTrip:
    def test_registry_snapshot_renders_identically(self):
        reg = _registry()
        rebuilt = registry_from_snapshot(reg.to_dict())
        assert render_openmetrics(rebuilt) == SNAPSHOT_TEXT
        assert parse_openmetrics(render_openmetrics(rebuilt)) == \
            parse_openmetrics(render_openmetrics(reg))

    def test_unknown_type_in_snapshot_rejected(self):
        with pytest.raises(ValueError, match="unknown type"):
            registry_from_snapshot({"x": {"type": "mystery", "value": 1}})
