"""Every trace consumer's output over one recorded run, pinned byte for byte.

``golden/trace.jsonl`` is the trace of a 2-cell campaign plus a
3-round adaptive run (the flow of ``examples/trace_watch.py``): begin
and end spans, end-only ``ilp-solve`` spans, an event carrying a
``seconds`` payload (``campaign-end``) and metric snapshots.  The
expected files beside it were rendered from that trace; a change to
how the file is read, classified or tabled must leave them unchanged.
"""

import json
import os

import pytest

from repro.metrics import render_report
from repro.pipeline import PhaseTimings
from repro.trace import read_trace, render_once
from repro.trace.export import chrome_trace_events

pytestmark = pytest.mark.trace

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

#: A fixed clock after the last record, so ages in the frame are stable.
_NOW = 1792407760.0


def _expected(name):
    with open(os.path.join(_GOLDEN, name), encoding="utf-8") as stream:
        return stream.read()


def render_golden_outputs(trace_path):
    """Every pinned output over ``trace_path``, by expected file name
    (the path is part of the watch frame's header, so callers pass it
    relative to the golden directory)."""
    records = read_trace(trace_path)
    chrome = json.dumps(chrome_trace_events(records), indent=1)
    return {
        "report.md": render_report(trace_path, title="Golden run"),
        "report.html": render_report(trace_path, "html", title="Golden run"),
        "watch.txt": render_once(trace_path, now=_NOW) + "\n",
        "chrome.json": chrome + "\n",
        "phase_timings.txt": PhaseTimings.from_spans(records).render() + "\n",
    }


@pytest.mark.parametrize(
    "name",
    ["report.md", "report.html", "watch.txt", "chrome.json", "phase_timings.txt"],
)
def test_output_matches_golden(name, monkeypatch):
    monkeypatch.chdir(_GOLDEN)
    assert render_golden_outputs("trace.jsonl")[name] == _expected(name)
