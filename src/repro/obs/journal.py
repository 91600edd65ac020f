"""The telemetry event log: one schema, two receivers, one fold.

Everything :class:`~repro.obs.Observability` collects is an *event* — a
``{"kind": ..., ...}`` dict — appended to its in-memory list and, when a
:class:`Journal` is attached, to an append-only JSON Lines file as well
(one object per line, a monotonically increasing ``seq``, sorted keys,
flushed before ``emit`` returns so the file survives a crash mid-run
and can be tailed; append mode, so restarted runs extend it).

:func:`payload_from_journal` is the one builder of the trace-shaped
payload every renderer reads (``report``, ``top``, OpenMetrics, the
Perfetto JSON): the live :meth:`~repro.obs.Observability.to_payload` is
that fold over the in-memory list, ``report run.jsonl`` the same fold
over the file.  The fold rule per kind is in the function's docstring
(and tabulated in ``docs/observability.md``).  :func:`doc_from_journal`
folds ``result``/``doc_meta`` events into a regress-checkable document,
so ``regress check baseline run.jsonl`` gates a run that only ever
streamed.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Mapping

from .report import (
    IOReport,
    NestIORecord,
    RedistRecord,
    build_drift,
    build_optimality,
)


class JournalError(ValueError):
    """A journal violates the event contract (carries the offending
    1-based line number when raised by :func:`read_journal`, the event's
    ``seq`` when raised by a fold)."""


class Journal:
    """Append-only JSONL event sink; every event is flushed as written."""

    def __init__(self, path_or_file: str | IO[str]):
        self._owns = not hasattr(path_or_file, "write")
        self._f: IO[str] = (
            open(path_or_file, "a") if self._owns else path_or_file
        )
        self.seq = 0

    def emit(self, kind: str, **fields: object) -> None:
        """Append one event line.  ``kind`` and ``seq`` are reserved
        field names; everything else passes through as-is (values must
        already be JSON-serializable — run results go through
        :func:`~repro.obs.export.sanitize` before they get here)."""
        event = {"seq": self.seq, "kind": kind}
        event.update(fields)
        self._f.write(json.dumps(event, sort_keys=True) + "\n")
        self._f.flush()
        self.seq += 1

    def close(self) -> None:
        """Close the file if this journal opened it (a handed-in
        file-like stays open — its owner closes it)."""
        if self._owns:
            self._f.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def read_journal(path_or_file: str | IO[str]) -> list[dict[str, object]]:
    """Parse a journal into its event dicts, validating the contract:
    every non-blank line is a JSON object with a string ``kind``.
    Raises :class:`JournalError` naming the first offending line."""
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().splitlines()
    else:
        with open(path_or_file) as f:
            lines = f.read().splitlines()
    events: list[dict[str, object]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as e:
            raise JournalError(
                f"journal line {lineno} is not valid JSON: {e}"
            ) from None
        if not isinstance(event, dict):
            raise JournalError(
                f"journal line {lineno} is not a JSON object "
                f"(got {type(event).__name__})"
            )
        if not isinstance(event.get("kind"), str):
            raise JournalError(
                f"journal line {lineno} has no string 'kind' field"
            )
        events.append(event)
    return events


def _strip(event: Mapping[str, object]) -> dict[str, object]:
    return {k: v for k, v in event.items() if k not in ("seq", "kind")}


#: kinds whose latest event *is* the payload key of the same name
SNAPSHOT_KINDS = ("stats", "metrics", "sim", "serve", "profile", "autotune")


def payload_from_journal(
    events: Iterable[Mapping[str, object]],
) -> dict[str, object]:
    """Fold events into the trace-shaped payload — the only place one
    is assembled, live (:meth:`Observability.to_payload`) or replayed.

    ``nest_io`` / ``redist`` records accumulate in arrival order;
    ``predictions`` / ``bounds`` / ``modeled_elements`` merge per nest
    (a later registration of the same nest wins); the
    :data:`SNAPSHOT_KINDS` and ``trace_events`` are last-wins; and the
    report's ``drift`` / ``optimality`` tables are *derived* from the
    folded records and registrations (:func:`build_drift`,
    :func:`build_optimality`).  Unknown kinds are ignored — journals
    may carry application events the report does not render.  A known
    kind whose fields do not fit raises :class:`JournalError`.
    """
    payload: dict[str, object] = {
        "traceEvents": [],
        "displayTimeUnit": "ms",
        "otherData": {"tool": "repro.obs"},
        "metrics": {},
    }
    records: list[NestIORecord] = []
    redist: list[RedistRecord] = []
    predictions: dict[str, dict[str, float]] = {}
    bounds: dict[str, Mapping[str, object]] = {}
    modeled: dict[str, float] = {}
    for event in events:
        kind = event.get("kind")
        data = event.get("data")
        try:
            if kind == "nest_io":
                records.append(NestIORecord.from_dict(_strip(event)))
            elif kind == "redist":
                redist.append(RedistRecord.from_dict(_strip(event)))
            elif kind == "predictions":
                for nest, per_array in data.items():
                    predictions.setdefault(nest, {}).update(per_array)
            elif kind == "bounds":
                bounds.update({b["nest"]: b for b in data})
            elif kind == "modeled_elements":
                modeled.update(data)
            elif kind == "trace_events":
                payload["traceEvents"] = list(data)
            elif kind in SNAPSHOT_KINDS:
                payload[kind] = dict(data)
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise JournalError(
                f"{kind} event seq={event.get('seq')} is malformed: {e!r}"
            ) from None
    payload["io_report"] = IOReport(
        records, redist, build_drift(records, predictions),
        build_optimality(records, bounds, modeled),
    ).to_dict()
    return payload


def doc_from_journal(
    events: Iterable[Mapping[str, object]],
) -> dict[str, object]:
    """Fold ``result`` / ``doc_meta`` events into a regress-checkable
    document (the ``{"results", "meta", "smoke", ...}`` shape the PR-4
    gate diffs).  ``result`` events carry ``name``/``payload``/optional
    ``meta``; ``doc_meta`` events merge envelope fields (``smoke``,
    ``machine``, …) last-wins."""
    doc: dict[str, object] = {"results": {}, "meta": {}, "smoke": False}
    results: dict[str, object] = doc["results"]
    meta: dict[str, object] = doc["meta"]
    for event in events:
        kind = event.get("kind")
        if kind == "result":
            name = event.get("name")
            if not isinstance(name, str):
                raise JournalError(
                    f"result event seq={event.get('seq')} has no "
                    "string 'name'"
                )
            results[name] = event.get("payload")
            if event.get("meta") is not None:
                meta[name] = event["meta"]
        elif kind == "doc_meta":
            doc.update(_strip(event))
    return doc
