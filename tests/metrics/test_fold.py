"""Reader-side merging of metric snapshots across processes."""

import pytest

from repro.metrics import MetricsAggregate
from repro.trace import record_shape

pytestmark = pytest.mark.trace


def _metric(pid, source, counters=None, gauges=None, histograms=None, ts=100.0):
    return {
        "ts": ts,
        "pid": pid,
        "kind": "metric",
        "source": source,
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
        "final": False,
    }


def _histogram(values):
    from repro.metrics.registry import Histogram

    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram.snapshot()


class TestMetricShape:
    def test_discriminates_on_kind_and_shape(self):
        assert record_shape(_metric(1, "main")) == "metric"
        # A span named "metric" would carry start_ts: not a snapshot.
        assert (
            record_shape({"ts": 1.0, "start_ts": 0.0, "pid": 1, "kind": "metric"})
            == "begin"
        )
        assert record_shape({"ts": 1.0, "pid": 1, "kind": "phase"}) == "event"


class TestCounters:
    def test_last_snapshot_per_key_then_summed_across_processes(self):
        aggregate = MetricsAggregate()
        # Cumulative snapshots from pid 1: only the last one counts.
        aggregate.ingest(_metric(1, "main", counters={"x": 2}, ts=100.0))
        aggregate.ingest(_metric(1, "main", counters={"x": 5}, ts=101.0))
        # A different process contributes additively.
        aggregate.ingest(_metric(2, "w1", counters={"x": 3}, ts=101.0))
        assert aggregate.counters() == {"x": 8}


class TestGauges:
    def test_envelope_tracks_last_min_max(self):
        aggregate = MetricsAggregate()
        aggregate.ingest(_metric(1, "main", gauges={"depth": 4}))
        aggregate.ingest(_metric(1, "main", gauges={"depth": 9}))
        aggregate.ingest(_metric(2, "w1", gauges={"depth": 1}))
        summary = aggregate.gauges()["depth"]
        assert summary.last == 1
        assert summary.min == 1 and summary.max == 9
        assert summary.samples == 3


class TestHistograms:
    def test_merged_across_processes_with_percentiles(self):
        aggregate = MetricsAggregate()
        aggregate.ingest(
            _metric(1, "main", histograms={"h": _histogram([1.0, 2.0])})
        )
        aggregate.ingest(
            _metric(2, "w1", histograms={"h": _histogram([4.0, 64.0])})
        )
        merged = aggregate.histograms()["h"]
        assert merged.count == 4
        assert merged.min == 1.0 and merged.max == 64.0
        assert merged.mean == pytest.approx(71.0 / 4)
        # Percentiles are exact to one geometric bucket and clamped to
        # the observed range.
        assert merged.min <= merged.percentile(0.5) <= merged.max
        assert merged.percentile(1.0) == 64.0
