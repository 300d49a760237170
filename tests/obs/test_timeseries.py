"""The snapshot ring and its reset-aware delta/rate/quantile math."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    HISTORY_FORMAT,
    HISTORY_VERSION,
    SnapshotRing,
    counter_delta,
    counter_total,
    histogram_delta,
    histogram_quantile,
    parse_history,
)


def _snapshot(requests=0.0, errors=0.0, observations=()):
    """A real registry snapshot with a counter and a histogram."""
    registry = MetricsRegistry()
    counter = registry.counter("req_total", "requests")
    if requests:
        counter.inc(requests, code="200")
    if errors:
        counter.inc(errors, code="500")
    hist = registry.histogram("lat_seconds", "latency",
                              buckets=(0.1, 1.0)).labels()
    for value in observations:
        hist.observe(value)
    return registry.snapshot()


class TestSnapshotRing:
    def test_capacity_bounds_the_ring(self):
        ring = SnapshotRing(capacity=3, clock=lambda: 1.0)
        for i in range(5):
            ring.append({}, t_unix=float(i))
        assert len(ring) == 3
        assert [s["t_unix"] for s in ring.samples()] == [2.0, 3.0, 4.0]

    def test_doc_declares_format_and_parses_back(self):
        ring = SnapshotRing(capacity=4, clock=lambda: 7.5)
        ring.append(_snapshot(requests=1))
        doc = ring.to_doc(interval_s=5.0)
        assert doc["format"] == HISTORY_FORMAT
        assert doc["version"] == HISTORY_VERSION
        assert doc["capacity"] == 4
        assert doc["interval_s"] == 5.0
        samples = parse_history(doc)
        assert len(samples) == 1
        assert samples[0]["t_unix"] == 7.5

    @pytest.mark.parametrize("capacity", [0, -1, 1.5, True])
    def test_bad_capacity_raises(self, capacity):
        with pytest.raises(ValueError):
            SnapshotRing(capacity=capacity)

    def test_parse_history_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            parse_history({"format": "repro-metrics", "version": 1})
        with pytest.raises(ValueError):
            parse_history({"format": HISTORY_FORMAT, "version": 99,
                           "samples": []})


class TestCounterMath:
    def test_total_and_label_filter(self):
        snap = _snapshot(requests=10, errors=3)
        assert counter_total(snap, "req_total") == 13.0
        assert counter_total(snap, "req_total",
                             where={"code": "500"}) == 3.0
        assert counter_total(snap, "missing_total") == 0.0

    def test_delta_is_per_series(self):
        older = _snapshot(requests=10, errors=3)
        newer = _snapshot(requests=25, errors=4)
        assert counter_delta(older, newer, "req_total") == 16.0
        assert counter_delta(older, newer, "req_total",
                             where={"code": "200"}) == 15.0

    def test_reset_clamps_that_series_only(self):
        older = _snapshot(requests=100, errors=3)
        newer = _snapshot(requests=5, errors=8)  # requests restarted
        # The restarted series reads 0, the live one its real +5.
        assert counter_delta(older, newer, "req_total") == 5.0

    def test_new_series_counts_from_zero(self):
        older = _snapshot(requests=10)
        newer = _snapshot(requests=10, errors=2)
        assert counter_delta(older, newer, "req_total") == 2.0


class TestHistogramMath:
    def test_delta_subtracts_per_bucket(self):
        older = _snapshot(observations=[0.05, 0.5])
        newer = _snapshot(observations=[0.05, 0.5, 0.05, 2.0])
        bounds, deltas, count, total = histogram_delta(
            older, newer, "lat_seconds")
        assert bounds == [0.1, 1.0]
        assert deltas == [1, 0, 1]
        assert count == 2
        assert total == pytest.approx(2.05)

    def test_reset_series_counts_as_fresh(self):
        older = _snapshot(observations=[0.05] * 10)
        newer = _snapshot(observations=[0.5, 2.0])  # restarted
        _bounds, deltas, count, _total = histogram_delta(
            older, newer, "lat_seconds")
        assert deltas == [0, 1, 1]
        assert count == 2

    def test_missing_metric_is_empty(self):
        assert histogram_delta({}, {}, "lat_seconds") == ([], [], 0, 0.0)


class TestHistogramQuantile:
    def test_interpolates_within_bucket(self):
        # 10 observations in (0.1, 1.0]: p50 lands mid-bucket.
        assert histogram_quantile([0.1, 1.0], [0, 10, 0], 0.5) \
            == pytest.approx(0.55)

    def test_first_bucket_interpolates_from_zero(self):
        assert histogram_quantile([0.1, 1.0], [10, 0, 0], 1.0) \
            == pytest.approx(0.1)

    def test_inf_bucket_reports_last_bound(self):
        assert histogram_quantile([0.1, 1.0], [0, 0, 5], 0.99) == 1.0

    def test_empty_returns_none(self):
        assert histogram_quantile([0.1, 1.0], [0, 0, 0], 0.5) is None

    def test_bad_q_raises(self):
        with pytest.raises(ValueError):
            histogram_quantile([0.1], [1, 0], 1.5)
