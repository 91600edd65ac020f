"""Exporters: Chrome trace-event JSON (Perfetto / chrome://tracing),
plus the shared result sanitizer every JSON artifact goes through.

One exported file carries both clocks as separate trace processes:

- ``pid 0`` — *wall time*: the compiler pipeline and executor spans as
  actually measured on the host;
- ``pid 1`` — *simulated time*: the discrete-event simulator's per-node
  execution and per-I/O-node queue occupancy, placed at the cost
  model's deterministic timestamps.

The file is the standard JSON-object form (``{"traceEvents": [...]}``)
so Perfetto and ``chrome://tracing`` load it directly; the extra
top-level keys (``metrics``, ``io_report``, ``stats``) are ignored by
the viewers and consumed by ``python -m repro.obs report``.

:func:`sanitize` converts benchmark/experiment results (numpy scalars
and arrays, dataclasses, ``to_dict()`` carriers, tuple dict keys, sets)
into plain JSON values.  Non-string dict keys are encoded with
:func:`encode_key` — a stable, *reversible* encoding (the key's JSON
text), so ``("adi", "col", 4, 8)`` becomes ``'["adi", "col", 4, 8]'``
and :func:`decode_key` recovers the tuple exactly.  Baseline diffs key
on these strings; the old ``repr()`` encoding was neither stable across
value types nor decodable.
"""

from __future__ import annotations

import dataclasses
import json
from typing import IO, Mapping

import numpy as np

from .tracer import Tracer

#: trace-event process ids for the two clocks
WALL_PID = 0
SIM_PID = 1

#: keys every emitted event must carry (the trace-event schema's
#: required subset; asserted by the unit tests)
REQUIRED_EVENT_KEYS = ("ph", "ts", "pid", "tid", "name")


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def _meta(pid: int, tid: int, name: str, kind: str) -> dict[str, object]:
    return {
        "ph": "M",
        "ts": 0,
        "pid": pid,
        "tid": tid,
        "name": kind,
        "args": {"name": name},
    }


def chrome_trace_events(tracer: Tracer) -> list[dict[str, object]]:
    """Render a tracer's spans and instants as trace-event dicts."""
    events: list[dict[str, object]] = [
        _meta(WALL_PID, 0, "wall time (compiler + runtime)", "process_name"),
        _meta(WALL_PID, 0, "pipeline", "thread_name"),
    ]
    tracks: dict[str, int] = {}
    have_sim = False
    for span in tracer.spans:
        if span.track is None:
            events.append(
                {
                    "ph": "X",
                    "ts": _us(span.start_s),
                    "dur": _us(span.duration_s),
                    "pid": WALL_PID,
                    "tid": 0,
                    "name": span.name,
                    "cat": span.cat or "span",
                    "args": dict(span.args),
                }
            )
        else:
            if not have_sim:
                events.append(
                    _meta(SIM_PID, 0, "simulated time (event sim)",
                          "process_name")
                )
                have_sim = True
            tid = tracks.get(span.track)
            if tid is None:
                tid = len(tracks)
                tracks[span.track] = tid
                events.append(_meta(SIM_PID, tid, span.track, "thread_name"))
            events.append(
                {
                    "ph": "X",
                    "ts": _us(span.start_s),
                    "dur": _us(span.duration_s),
                    "pid": SIM_PID,
                    "tid": tid,
                    "name": span.name,
                    "cat": span.cat or "sim",
                    "args": dict(span.args),
                }
            )
    for inst in tracer.instants:
        events.append(
            {
                "ph": "i",
                "ts": _us(inst.ts_s),
                "pid": WALL_PID,
                "tid": 0,
                "name": inst.name,
                "cat": inst.cat or "instant",
                "s": "t",
                "args": dict(inst.args),
            }
        )
    return events


def validate_trace_events(events: list[Mapping[str, object]]) -> None:
    """Raise if any event misses the schema's required keys."""
    for i, ev in enumerate(events):
        missing = [k for k in REQUIRED_EVENT_KEYS if k not in ev]
        if missing:
            raise ValueError(
                f"trace event {i} ({ev.get('name')!r}) missing {missing}"
            )


def write_trace(path_or_file: str | IO[str], payload: Mapping[str, object]) -> None:
    """Write a trace payload (``{"traceEvents": [...], ...}``) as JSON."""
    validate_trace_events(payload.get("traceEvents", []))
    if hasattr(path_or_file, "write"):
        json.dump(payload, path_or_file, indent=1)
    else:
        with open(path_or_file, "w") as f:
            json.dump(payload, f, indent=1)


def load_trace(path: str) -> dict[str, object]:
    with open(path) as f:
        return json.load(f)


# -- result sanitization ----------------------------------------------------


def encode_key(key: object) -> str:
    """Encode one dict key as a stable string.

    Strings pass through unchanged; everything else becomes the JSON
    text of its sanitized value (``(1, 0)`` → ``'[1, 0]'``, ``2.5`` →
    ``'2.5'``).  The encoding is deterministic — equal keys always
    produce equal strings — and reversible via :func:`decode_key`.
    """
    if isinstance(key, str):
        return key
    return json.dumps(sanitize(key))


def decode_key(encoded: str) -> object:
    """Inverse of :func:`encode_key`: JSON-decode the key text, turning
    lists back into tuples (dict keys were hashable, so any sequence
    key was a tuple).  Plain strings come back unchanged."""
    try:
        value = json.loads(encoded)
    except (json.JSONDecodeError, TypeError):
        return encoded

    def tuplify(v: object) -> object:
        if isinstance(v, list):
            return tuple(tuplify(x) for x in v)
        return v

    return tuplify(value)


def sanitize(obj: object) -> object:
    """Make a result JSON-serializable: numpy scalars/arrays,
    dataclasses and ``to_dict()`` carriers, tuple dict keys, sets."""
    if isinstance(obj, dict):
        return {encode_key(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        # iteration order is arbitrary: sort by JSON text so equal sets
        # always serialize identically (baselines diff on the output)
        return sorted(
            (sanitize(v) for v in obj),
            key=lambda v: json.dumps(v, sort_keys=True),
        )
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if hasattr(obj, "to_dict"):
        return sanitize(obj.to_dict())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sanitize(dataclasses.asdict(obj))
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


# -- OpenMetrics / Prometheus text exposition -------------------------------


class OpenMetricsError(ValueError):
    """A registry cannot be written in the exposition format (two names
    collide after sanitization, or an instrument type is unknown)."""


def _om_name(name: str) -> str:
    """A valid Prometheus metric name: the registry's dotted names map
    to underscores (``io.read_calls`` → ``io_read_calls``)."""
    out = "".join(
        c if c.isalnum() or c in "_:" else "_" for c in str(name)
    )
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def _om_escape(value: object) -> str:
    """Label-value escaping per the exposition format: backslash,
    double-quote and newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _om_labels(labels: Mapping[str, object]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_om_name(k)}="{_om_escape(labels[k])}"' for k in sorted(labels)
    )
    return "{" + inner + "}"


def _om_number(value: float) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_openmetrics(registry) -> str:
    """Prometheus/OpenMetrics text exposition of a live
    :class:`~repro.obs.metrics.MetricsRegistry`.

    One ``# TYPE`` line per metric family, counter samples with the
    ``_total`` suffix, histograms as cumulative ``_bucket{le=...}``
    series (``+Inf`` last) plus ``_sum``/``_count``, label values
    escaped per the format, and the ``# EOF`` terminator.  Two dotted
    names that collide after sanitization with different instrument
    types raise :class:`OpenMetricsError`.
    """
    from .metrics import Counter, Gauge, Histogram

    families: dict[str, str] = {}
    grouped: dict[str, list[tuple[Mapping[str, object], object]]] = {}
    meta = getattr(registry, "_meta", {})
    for key, inst in sorted(registry.items()):
        name, labels = meta.get(key, (key, {}))
        fam = _om_name(name)
        if isinstance(inst, Counter):
            typ = "counter"
        elif isinstance(inst, Gauge):
            typ = "gauge"
        elif isinstance(inst, Histogram):
            typ = "histogram"
        else:
            raise OpenMetricsError(
                f"metric {key!r} has unknown instrument type "
                f"{type(inst).__name__}"
            )
        prev = families.get(fam)
        if prev is not None and prev != typ:
            raise OpenMetricsError(
                f"metric family {fam!r} is both {prev} and {typ}"
            )
        families[fam] = typ
        grouped.setdefault(fam, []).append((labels, inst))
    lines: list[str] = []
    for fam in sorted(grouped):
        typ = families[fam]
        lines.append(f"# TYPE {fam} {typ}")
        for labels, inst in grouped[fam]:
            if typ == "counter":
                lines.append(
                    f"{fam}_total{_om_labels(labels)} "
                    f"{_om_number(inst.value)}"
                )
            elif typ == "gauge":
                lines.append(
                    f"{fam}{_om_labels(labels)} {_om_number(inst.value)}"
                )
            else:
                cumulative = 0
                for bound, n in zip(inst.bounds, inst.bucket_counts):
                    cumulative += n
                    le = dict(labels)
                    le["le"] = format(float(bound), "g")
                    lines.append(
                        f"{fam}_bucket{_om_labels(le)} {cumulative}"
                    )
                le = dict(labels)
                le["le"] = "+Inf"
                lines.append(f"{fam}_bucket{_om_labels(le)} {inst.count}")
                lines.append(
                    f"{fam}_sum{_om_labels(labels)} {_om_number(inst.total)}"
                )
                lines.append(
                    f"{fam}_count{_om_labels(labels)} {inst.count}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
