"""The run-history index: one summary record per completed run.

Every completed pipeline, campaign, and service run appends one JSONL
summary record to ``runs.jsonl`` under its results root (through the
same flock-serialized, torn-tail-tolerant append the checkpoints use),
so perf claims become diffable artifacts: ``repro runs list`` tables
the history and ``repro runs diff A B`` compares two entries,
flagging per-phase wall-time and throughput regressions beyond a
threshold.

Records are self-describing and tolerant to extension::

    {"id": "pipeline-3fb2c91d04", "ts": ..., "kind": "pipeline",
     "label": "...", "seconds": ..., "cases": ..., "throughput": ...,
     "phases": {"evaluate": ..., ...}, ...}

``id`` is a content digest prefixed by the run kind; ``runs`` commands
accept the full id, any unambiguous prefix, or a 1-based index into
the listing (negatives count from the end, ``-1`` = latest).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.checkpoint import append_jsonl_line
from repro.reporting.tables import render_comparison_table
from repro.trace.tracer import read_trace

#: The index file name under a results root.
RUNS_FILENAME = "runs.jsonl"

#: Relative change beyond which a diff row is flagged.
DEFAULT_THRESHOLD = 0.10


def runs_path(results_dir: str) -> str:
    return os.path.join(results_dir, RUNS_FILENAME)


def record_run(
    results_dir: str,
    kind: str,
    label: str,
    seconds: float,
    cases: Optional[int] = None,
    phases: Optional[Dict[str, float]] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Append one summary record for a completed run; returns it.

    ``phases`` maps phase name to wall seconds; ``throughput`` is
    derived (cases per second) when both inputs are present.
    """
    record = {
        "ts": round(time.time(), 6),
        "kind": kind,
        "label": label,
        "seconds": round(float(seconds), 6),
    }
    if cases is not None:
        record["cases"] = int(cases)
        if seconds > 0:
            record["throughput"] = round(cases / seconds, 6)
    if phases:
        record["phases"] = {
            name: round(float(value), 6) for name, value in phases.items()
        }
    if extra:
        record.update(extra)
    digest = hashlib.md5(
        json.dumps(record, sort_keys=True).encode("utf-8")
    ).hexdigest()
    record["id"] = "%s-%s" % (kind, digest[:10])
    os.makedirs(results_dir or ".", exist_ok=True)
    append_jsonl_line(runs_path(results_dir), record)
    return record


def load_runs(results_dir: str) -> List[dict]:
    """Every parseable record in the index, file order (oldest first);
    a torn tail from a killed writer is skipped, as in a trace file."""
    return read_trace(runs_path(results_dir))


def resolve_run(runs: List[dict], token: str) -> dict:
    """The record ``token`` names: exact id, unique id prefix, or a
    1-based index (negative = from the end)."""
    try:
        index = int(token)
    except ValueError:
        index = None
    if index is not None and index != 0:
        position = index - 1 if index > 0 else index
        try:
            return runs[position]
        except IndexError:
            raise SystemExit(
                "run index %s out of range (%d runs)" % (token, len(runs))
            )
    matches = [run for run in runs if run.get("id") == token]
    if not matches:
        matches = [
            run for run in runs if str(run.get("id", "")).startswith(token)
        ]
    if not matches:
        raise SystemExit("no run matches %r" % token)
    if len(matches) > 1:
        raise SystemExit(
            "%r is ambiguous: %s"
            % (token, ", ".join(str(run.get("id")) for run in matches))
        )
    return matches[0]


def render_runs(runs: List[dict]) -> str:
    """The ``runs list`` table (latest last, matching file order)."""
    if not runs:
        return "no recorded runs"
    rows = []
    for position, run in enumerate(runs, start=1):
        throughput = run.get("throughput")
        rows.append(
            [
                str(position),
                str(run.get("id", "?")),
                str(run.get("kind", "?")),
                str(run.get("label", ""))[:48],
                "%.2fs" % float(run.get("seconds", 0.0)),
                str(run.get("cases", "-")),
                "%.1f/s" % throughput if throughput is not None else "-",
            ]
        )
    return render_comparison_table(
        ["#", "id", "kind", "label", "wall", "cases", "throughput"],
        rows,
        title="Run history (%d runs)" % len(runs),
    )


@dataclass
class DiffRow:
    """One compared quantity between two runs."""

    name: str
    before: Optional[float]
    after: Optional[float]
    #: Relative change ``(after - before) / before`` when computable.
    delta: Optional[float]
    #: Whether the change crosses the threshold in the bad direction
    #: (wall time up, throughput down).
    regression: bool
    flagged: bool


@dataclass
class RunDiff:
    """``runs diff A B``: per-quantity deltas with regression flags."""

    before: dict
    after: dict
    rows: List[DiffRow] = field(default_factory=list)
    threshold: float = DEFAULT_THRESHOLD

    @property
    def regressions(self) -> List[DiffRow]:
        return [row for row in self.rows if row.regression]

    def render(self) -> str:
        table_rows = []
        for row in self.rows:
            if row.delta is None:
                change = "-"
            else:
                change = "%+.1f%%" % (row.delta * 100.0)
            if row.regression:
                flag = "REGRESSION"
            elif row.flagged:
                flag = "improved"
            else:
                flag = ""
            table_rows.append(
                [
                    row.name,
                    _render_value(row.name, row.before),
                    _render_value(row.name, row.after),
                    change,
                    flag,
                ]
            )
        title = "Run diff: %s -> %s (threshold %.0f%%)" % (
            self.before.get("id", "?"),
            self.after.get("id", "?"),
            self.threshold * 100.0,
        )
        body = render_comparison_table(
            [
                "metric",
                str(self.before.get("id", "A")),
                str(self.after.get("id", "B")),
                "delta",
                "",
            ],
            table_rows,
            title=title,
        )
        verdict = (
            "%d regression(s) flagged" % len(self.regressions)
            if self.regressions
            else "no regressions flagged"
        )
        return body + "\n" + verdict


def _render_value(name: str, value: Optional[float]) -> str:
    if value is None:
        return "-"
    if name == "throughput":
        return "%.1f/s" % value
    return "%.2fs" % value


def _relative(before: Optional[float], after: Optional[float]):
    if before is None or after is None or not before:
        return None
    return (after - before) / before


def diff_runs(
    before: dict, after: dict, threshold: float = DEFAULT_THRESHOLD
) -> RunDiff:
    """Compare two index records: total wall, throughput, per-phase
    wall.  A row regresses when wall time rises (or throughput falls)
    by more than ``threshold``."""
    diff = RunDiff(before=before, after=after, threshold=threshold)

    def add(name: str, first, second, higher_is_better: bool) -> None:
        delta = _relative(first, second)
        flagged = delta is not None and abs(delta) > threshold
        bad = delta is not None and (
            delta < 0 if higher_is_better else delta > 0
        )
        diff.rows.append(
            DiffRow(
                name=name,
                before=first,
                after=second,
                delta=delta,
                regression=flagged and bad,
                flagged=flagged,
            )
        )

    add("wall", before.get("seconds"), after.get("seconds"), False)
    add(
        "throughput",
        before.get("throughput"),
        after.get("throughput"),
        True,
    )
    phase_names: List[str] = []
    for run in (before, after):
        for name in run.get("phases") or {}:
            if name not in phase_names:
                phase_names.append(name)
    for name in phase_names:
        add(
            "phase:%s" % name,
            (before.get("phases") or {}).get(name),
            (after.get("phases") or {}).get(name),
            False,
        )
    return diff


__all__ = [
    "DEFAULT_THRESHOLD",
    "DiffRow",
    "RunDiff",
    "RUNS_FILENAME",
    "diff_runs",
    "load_runs",
    "record_run",
    "render_runs",
    "resolve_run",
    "runs_path",
]
