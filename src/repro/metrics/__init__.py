"""Quantitative observability: metrics over the trace stream.

``repro.metrics`` is the counters/gauges/histograms half of the
observability layer (the spans half is :mod:`repro.trace`):

- :mod:`repro.metrics.registry` — the per-process instrument registry
  (zero-allocation when disabled) snapshotting ``metric`` records into
  the shared trace file;
- :mod:`repro.metrics.fold` — the reader side, merging cumulative
  per-process snapshots into run totals;
- :mod:`repro.metrics.report` — ``repro report``: self-contained
  Markdown/HTML run reports;
- :mod:`repro.metrics.runs` — the run-history index behind
  ``repro runs list`` / ``repro runs diff``.
"""

from repro.metrics.fold import (
    GaugeSummary,
    HistogramSummary,
    MetricsAggregate,
)
from repro.metrics.registry import (
    Metrics,
    current_metrics,
    install_metrics,
)
from repro.metrics.report import render_report
from repro.metrics.runs import (
    diff_runs,
    load_runs,
    record_run,
    render_runs,
    resolve_run,
)

__all__ = [
    "GaugeSummary",
    "HistogramSummary",
    "Metrics",
    "MetricsAggregate",
    "current_metrics",
    "diff_runs",
    "install_metrics",
    "load_runs",
    "record_run",
    "render_report",
    "render_runs",
    "resolve_run",
]
