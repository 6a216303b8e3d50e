"""Self-contained run reports folded from a trace file.

``repro report --trace PATH`` renders one document — Markdown by
default, or a dependency-free single-file HTML page — with everything
a post-mortem or perf review reads off a run: per-phase/span wall
tables, counter totals, gauge envelopes, histogram percentiles, and
the slowest spans.  The fold is streaming
(:func:`repro.trace.metrics.fold_file`), so reports over million-span
service traces stay flat in memory.  :func:`build_sections` is the one
source of the report's tables; :func:`render_markdown` and
:func:`render_html` only lay them out.
"""

from __future__ import annotations

import html
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.trace.metrics import TraceMetrics

# repro.trace.metrics folds metric records through repro.metrics.fold,
# so the trace-side imports here are deferred to call time to keep the
# package importable from either direction.

#: A rendered section: (title, column headers, rows).
_Section = Tuple[str, List[str], List[List[str]]]


def build_sections(
    metrics: TraceMetrics, slowest: int = 10
) -> List[_Section]:
    """The report body as format-neutral tables."""
    from repro.trace.metrics import span_group

    sections: List[_Section] = []

    rows = []
    for group in sorted(metrics.summaries):
        summary = metrics.summaries[group]
        rows.append(
            [
                group,
                str(summary.count),
                "%.3f" % summary.total_seconds,
                "%.3f" % summary.mean_seconds,
                "%.3f" % summary.max_seconds,
                str(summary.failed),
            ]
        )
    sections.append(
        (
            "Span summary (%d records: %d spans, %d events, %d metric snapshots)"
            % (
                metrics.record_count,
                metrics.span_count,
                metrics.event_count,
                metrics.metric_count,
            ),
            ["span", "count", "total s", "mean s", "max s", "failed"],
            rows,
        )
    )

    counters = metrics.metrics.counters()
    if counters:
        sections.append(
            (
                "Counters",
                ["counter", "total"],
                [[name, "%g" % counters[name]] for name in sorted(counters)],
            )
        )

    gauges = metrics.metrics.gauges()
    if gauges:
        sections.append(
            (
                "Gauges",
                ["gauge", "last", "min", "max"],
                [
                    [
                        name,
                        "%g" % gauges[name].last,
                        "%g" % gauges[name].min,
                        "%g" % gauges[name].max,
                    ]
                    for name in sorted(gauges)
                ],
            )
        )

    histograms = metrics.metrics.histograms()
    if histograms:
        rows = []
        for name in sorted(histograms):
            summary = histograms[name]
            rows.append(
                [
                    name,
                    str(summary.count),
                    "%g" % summary.mean,
                    "%g" % summary.percentile(0.5),
                    "%g" % summary.percentile(0.9),
                    "%g" % summary.percentile(0.99),
                    "%g" % summary.max,
                ]
            )
        sections.append(
            (
                "Histogram percentiles",
                ["histogram", "count", "mean", "p50", "p90", "p99", "max"],
                rows,
            )
        )

    cells = metrics.cells()
    if cells:
        sections.append(
            (
                "Campaign cells",
                ["cell", "seconds", "status", "atoms"],
                [
                    [
                        str(record.get("cell", "?")),
                        "%.3f" % float(record.get("seconds", 0.0)),
                        "ok" if record.get("ok", True) else "FAILED",
                        str(record.get("atoms", "-")),
                    ]
                    for record in cells
                ],
            )
        )

    rounds = metrics.rounds()
    if rounds:
        sections.append(
            (
                "Adaptive rounds",
                ["round", "cases", "coverage", "atoms", "seconds", "stop"],
                [
                    [
                        str(record.get("round", "?")),
                        str(record.get("cumulative_cases", "-")),
                        "%.1f%%"
                        % (100.0 * float(record.get("atom_coverage", 0.0))),
                        str(record.get("contract_size", "-")),
                        "%.3f" % float(record.get("seconds", 0.0)),
                        str(record.get("stop_reason") or "-"),
                    ]
                    for record in rounds
                ],
            )
        )

    if metrics.span_count:
        rows = []
        for record in metrics.slowest(slowest):
            detail = []
            for key in ("phase", "cell", "round", "start_id", "job", "request"):
                if key in record:
                    detail.append("%s=%s" % (key, record[key]))
            rows.append(
                [
                    span_group(record),
                    str(record.get("source", "-")),
                    " ".join(detail) or "-",
                    "%.3f" % float(record.get("seconds", 0.0)),
                ]
            )
        sections.append(
            ("Slowest spans", ["span", "source", "detail", "seconds"], rows)
        )

    return sections


def _markdown_table(headers: List[str], rows: List[List[str]]) -> str:
    if not rows:
        return "*(empty)*"
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def render_markdown(
    metrics: TraceMetrics, title: str = "Run report", slowest: int = 10
) -> str:
    parts = ["# %s" % title]
    for section_title, headers, rows in build_sections(metrics, slowest):
        parts.append("## %s" % section_title)
        parts.append(_markdown_table(headers, rows))
    return "\n\n".join(parts) + "\n"


_HTML_STYLE = (
    "body{font-family:sans-serif;margin:2em;max-width:72em}"
    "table{border-collapse:collapse;margin:1em 0}"
    "th,td{border:1px solid #ccc;padding:0.3em 0.7em;text-align:left}"
    "th{background:#f0f0f0}"
    "h2{border-bottom:1px solid #ddd;padding-bottom:0.2em}"
)


def render_html(
    metrics: TraceMetrics, title: str = "Run report", slowest: int = 10
) -> str:
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        "<title>%s</title>" % html.escape(title),
        "<style>%s</style></head><body>" % _HTML_STYLE,
        "<h1>%s</h1>" % html.escape(title),
    ]
    for section_title, headers, rows in build_sections(metrics, slowest):
        parts.append("<h2>%s</h2>" % html.escape(section_title))
        parts.append("<table><tr>")
        parts.extend("<th>%s</th>" % html.escape(header) for header in headers)
        parts.append("</tr>")
        for row in rows:
            parts.append(
                "<tr>"
                + "".join("<td>%s</td>" % html.escape(cell) for cell in row)
                + "</tr>"
            )
        parts.append("</table>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def render_report(
    trace_path: str,
    fmt: str = "markdown",
    title: Optional[str] = None,
    slowest: int = 10,
) -> str:
    """Fold ``trace_path`` and render it as ``markdown`` or ``html``."""
    from repro.trace.metrics import fold_file

    metrics = fold_file(trace_path)
    if title is None:
        title = "Run report: %s" % trace_path
    if fmt in ("markdown", "md"):
        return render_markdown(metrics, title=title, slowest=slowest)
    if fmt == "html":
        return render_html(metrics, title=title, slowest=slowest)
    raise ValueError("unknown report format: %r" % fmt)


__all__ = [
    "build_sections",
    "render_html",
    "render_markdown",
    "render_report",
]
