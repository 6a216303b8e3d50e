"""Unified observability: structured JSONL trace spans for every layer.

``repro.trace`` is the one tracing surface of the toolchain.  The
:class:`Tracer` appends events and ``start_ts``-carrying spans to a
single shared JSONL file; pipeline phases, executor shards, campaign
cells, adaptive rounds, and service job/request transitions all emit
into it.  Every reader parses the file through one tolerant line
parser and classifies records with :func:`record_shape`:
:mod:`repro.trace.metrics` folds a trace file into run summaries,
:mod:`repro.trace.export` converts it for trace viewers, and
:mod:`repro.trace.watch` tails it as a live progress view
(``repro-synthesize watch``).
"""

from repro.trace.metrics import (
    SpanGroupSummary,
    TraceMetrics,
    fold,
    fold_file,
    span_group,
)
from repro.trace.tracer import (
    Tracer,
    current_tracer,
    install_tracer,
    iter_trace,
    profile_step,
    read_trace,
    record_shape,
    trace_step,
)
from repro.trace.watch import TraceTail, TraceWatch, render_once, watch

__all__ = [
    "SpanGroupSummary",
    "TraceMetrics",
    "TraceTail",
    "TraceWatch",
    "Tracer",
    "current_tracer",
    "fold",
    "fold_file",
    "install_tracer",
    "iter_trace",
    "profile_step",
    "read_trace",
    "record_shape",
    "render_once",
    "span_group",
    "trace_step",
    "watch",
]
