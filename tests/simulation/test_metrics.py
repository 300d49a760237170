"""Metrics bookkeeping."""

import math

import pytest

from repro.simulation.metrics import Metrics


class TestRecording:
    def test_counters(self):
        m = Metrics()
        m.record_attempt(0, 1)
        m.record_attempt(0, 1)
        m.record_success(0, 1)
        m.record_collision(1)
        assert m.attempts[(0, 1)] == 2
        assert m.successes[(0, 1)] == 1
        assert m.collisions[1] == 1
        assert m.total_collisions() == 1

    def test_delivery(self):
        m = Metrics()
        m.generated = 3
        m.record_delivery(5)
        m.record_delivery(15)
        assert m.delivered == 2
        assert m.delivery_ratio() == 2 / 3
        assert m.mean_latency() == 10.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Metrics().record_delivery(-1)


class TestReporting:
    def test_link_success_rate(self):
        m = Metrics()
        m.record_attempt(0, 1)
        m.record_attempt(0, 1)
        m.record_success(0, 1)
        assert m.link_success_rate(0, 1) == 0.5
        assert m.link_success_rate(1, 0) == 0.0

    def test_link_throughput(self):
        m = Metrics()
        m.slots = 20
        for _ in range(4):
            m.record_success(0, 1)
        assert m.link_throughput(0, 1, frame_length=10) == 2.0

    def test_min_mean_link_throughput(self):
        m = Metrics()
        m.slots = 10
        m.record_success(0, 1)
        links = [(0, 1), (1, 0)]
        assert m.min_link_throughput(links, 10) == 0.0
        assert m.mean_link_throughput(links, 10) == 0.5

    def test_percentiles(self):
        m = Metrics()
        for lat in range(1, 101):
            m.record_delivery(lat)
        assert m.latency_percentile(50) == pytest.approx(50.5)
        assert m.latency_percentile(95) == pytest.approx(95.05)

    def test_empty_latency_is_nan(self):
        m = Metrics()
        assert math.isnan(m.mean_latency())
        assert math.isnan(m.latency_percentile(50))

    def test_delivery_ratio_vacuous(self):
        assert Metrics().delivery_ratio() == 1.0

    def test_mean_link_throughput_empty(self):
        assert Metrics().mean_link_throughput([], 5) == 0.0

    @pytest.mark.parametrize("frame_length, error", [
        (0, ValueError), (2.0, TypeError)])
    @pytest.mark.parametrize("summary", ["min_link_throughput",
                                         "mean_link_throughput"])
    def test_frame_length_checked_without_links(self, summary, frame_length,
                                                error):
        with pytest.raises(error):
            getattr(Metrics(), summary)([], frame_length)

    def test_frame_length_checked_once_per_call(self, monkeypatch):
        import repro.simulation.metrics as module

        names = []
        monkeypatch.setattr(module, "check_int", lambda value, name, **kw:
                            names.append(name) or value)
        m = Metrics()
        m.slots = 7
        m.record_success(2, 1)
        links = [(0, 1), (1, 0), (2, 1)]
        assert m.min_link_throughput(links, 3) == 0.0
        assert m.mean_link_throughput(links, 3) == (1 / (7 / 3)) / 3
        assert names == ["frame_length", "frame_length"]
