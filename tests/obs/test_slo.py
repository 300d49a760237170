"""SLO evaluation: objectives, compliance, burn rates — all pure."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import validate_snapshot as validate_metrics
from repro.obs.slo import (
    SLO_REPORT_FORMAT,
    SLO_REPORT_VERSION,
    BurnRateTracker,
    Objective,
    default_serve_objectives,
    evaluate,
    good_total,
)
from repro.obs.slo import validate_report as validate_slo


def _snapshot(*, fast=0, slow=0, ok=0, errors=0):
    """A real registry snapshot: *fast* 0.2s and *slow* 2.0s latency
    observations, *ok* 200s and *errors* 503s."""
    reg = MetricsRegistry()
    hist = reg.histogram("repro_serve_request_seconds", "latency",
                         buckets=(0.5, 1.0, 2.5))
    for _ in range(fast):
        hist.labels(endpoint="/plan").observe(0.2)
    for _ in range(slow):
        hist.labels(endpoint="/plan").observe(2.0)
    counter = reg.counter("repro_serve_requests_total", "requests")
    for _ in range(ok):
        counter.labels(code="200").inc()
    for _ in range(errors):
        counter.labels(code="503").inc()
    return reg.snapshot()


class TestObjective:
    def test_rejects_unknown_kind_and_bad_target(self):
        with pytest.raises(ValueError, match="kind"):
            Objective(name="x", kind="throughput", metric="m", target=0.9)
        with pytest.raises(ValueError, match="target"):
            Objective(name="x", kind="availability", metric="m", target=1.0)

    def test_latency_requires_a_positive_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            Objective(name="x", kind="latency", metric="m", target=0.9)

    def test_dict_round_trip(self):
        obj = Objective(name="lat", kind="latency", metric="m", target=0.95,
                        threshold_s=0.5)
        assert Objective.from_dict(obj.to_dict()) == obj
        avail = Objective(name="ok", kind="availability", metric="c",
                          target=0.999, code_label="status")
        assert Objective.from_dict(avail.to_dict()) == avail

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown objective field"):
            Objective.from_dict({"name": "x", "kind": "availability",
                                 "metric": "m", "target": 0.9,
                                 "window": 60})


class TestGoodTotal:
    def test_latency_counts_at_the_threshold_bucket(self):
        snap = _snapshot(fast=90, slow=10)
        obj = Objective(name="lat", kind="latency",
                        metric="repro_serve_request_seconds",
                        target=0.99, threshold_s=1.0)
        assert good_total(obj, snap) == (90.0, 100.0)

    def test_availability_classifies_5xx_as_bad(self):
        snap = _snapshot(ok=95, errors=5)
        obj = Objective(name="ok", kind="availability",
                        metric="repro_serve_requests_total", target=0.999)
        assert good_total(obj, snap) == (95.0, 100.0)

    def test_absent_metric_counts_nothing(self):
        obj = Objective(name="ok", kind="availability",
                        metric="nope_total", target=0.9)
        assert good_total(obj, _snapshot()) == (0.0, 0.0)


class TestEvaluate:
    def test_burned_objectives_flip_ok_and_report_burn(self):
        snap = _snapshot(fast=90, slow=10, ok=95, errors=5)
        report = evaluate(default_serve_objectives(), snap)
        assert report["format"] == SLO_REPORT_FORMAT
        assert report["version"] == SLO_REPORT_VERSION
        assert report["ok"] is False
        by_name = {r["objective"]["name"]: r for r in report["objectives"]}
        latency = by_name["serve-latency"]
        assert latency["compliance"] == pytest.approx(0.9)
        # 10% bad against a 1% budget: burning 10x too fast.
        assert latency["budget_burn"] == pytest.approx(10.0)
        availability = by_name["serve-availability"]
        assert availability["compliance"] == pytest.approx(0.95)
        assert availability["ok"] is False

    def test_empty_service_has_violated_nothing(self):
        report = evaluate(default_serve_objectives(), _snapshot())
        assert report["ok"] is True
        for entry in report["objectives"]:
            assert entry["compliance"] == 1.0
            assert entry["budget_burn"] == 0.0

    def test_report_passes_the_shipped_validator(self):
        snap = _snapshot(fast=99, slow=1, ok=100)
        assert validate_slo(evaluate(default_serve_objectives(), snap)) == []

    def test_burn_rates_fold_into_the_report(self):
        obj = default_serve_objectives()[1]
        report = evaluate([obj], _snapshot(ok=10),
                          burn_rates={obj.name: {"60s": 2.5}})
        assert report["objectives"][0]["burn_rates"] == {"60s": 2.5}


class TestBurnRateTracker:
    def test_needs_two_samples_per_window(self):
        obj = default_serve_objectives()[1]
        tracker = BurnRateTracker([obj], windows_s=(60.0,),
                                  clock=lambda: 0.0)
        assert tracker.burn_rates() == {obj.name: {"60s": None}}
        tracker.sample(_snapshot(ok=10))
        assert tracker.burn_rates() == {obj.name: {"60s": None}}

    def test_rolling_burn_from_deltas(self):
        obj = Objective(name="ok", kind="availability",
                        metric="repro_serve_requests_total", target=0.99)
        now = [0.0]
        tracker = BurnRateTracker([obj], windows_s=(60.0, 600.0),
                                  clock=lambda: now[0])
        tracker.sample(_snapshot(ok=100))           # t=0: all good
        now[0] = 90.0
        tracker.sample(_snapshot(ok=150, errors=50))  # t=90: 50 bad / 100
        rates = tracker.burn_rates()[obj.name]
        # The 60s window holds only the newest sample -> no delta.
        assert rates["60s"] is None
        # Over 600s: 50 bad of 100 new events against a 1% budget.
        assert rates["600s"] == pytest.approx(50.0)

    def test_no_new_events_reports_none(self):
        obj = default_serve_objectives()[1]
        now = [0.0]
        tracker = BurnRateTracker([obj], windows_s=(60.0,),
                                  clock=lambda: now[0])
        tracker.sample(_snapshot(ok=10))
        now[0] = 10.0
        tracker.sample(_snapshot(ok=10))
        assert tracker.burn_rates()[obj.name]["60s"] is None

    def test_counter_reset_never_reports_negative_burn(self):
        # A supervised restart re-reports counters from zero, so a
        # later sample's totals go *down*; every negative delta must
        # clamp to zero and never surface as a negative burn.
        obj = Objective(name="ok", kind="availability",
                        metric="repro_serve_requests_total", target=0.99)
        reg = MetricsRegistry()
        now = [0.0]
        tracker = BurnRateTracker([obj], windows_s=(600.0,),
                                  clock=lambda: now[0], registry=reg)
        tracker.sample(_snapshot(ok=100, errors=50))  # before the crash
        now[0] = 30.0
        tracker.sample(_snapshot(ok=5))               # restarted: 5 < 150
        rates = tracker.burn_rates()[obj.name]
        # Total went down: no window delta, never a negative burn.
        assert rates["600s"] is None
        now[0] = 60.0
        tracker.sample(_snapshot(ok=40, errors=1))
        rates = tracker.burn_rates()[obj.name]
        assert rates["600s"] is not None
        assert rates["600s"] >= 0.0

    def test_counter_reset_is_counted_per_objective(self):
        obj = default_serve_objectives()[1]
        reg = MetricsRegistry()
        now = [0.0]
        tracker = BurnRateTracker([obj], windows_s=(60.0,),
                                  clock=lambda: now[0], registry=reg)
        tracker.sample(_snapshot(ok=100))
        now[0] = 10.0
        tracker.sample(_snapshot(ok=3))  # restart
        now[0] = 20.0
        tracker.sample(_snapshot(ok=50))  # normal growth: no new reset
        counter = reg.get("repro_slo_counter_resets")
        assert counter is not None
        assert counter.value(objective=obj.name) == 1.0


class TestExemplars:
    def test_exemplars_capture_the_worst_recent_observation(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h_seconds", "latency", buckets=(0.5, 1.0),
                             exemplars=True)
        series = hist.labels(endpoint="/plan")
        series.observe(0.2, trace_id="aaaa")
        series.observe(0.4, trace_id="bbbb")  # worse in the same bucket
        series.observe(0.3, trace_id="cccc")  # not worse: kept out
        series.observe(2.0, trace_id="dddd")  # +Inf bucket
        snap = reg.snapshot()
        entry = snap["histograms"]["h_seconds"]["series"][0]
        assert entry["exemplars"][0] == {"value": 0.4, "trace_id": "bbbb"}
        assert entry["exemplars"][1] is None
        assert entry["exemplars"][2] == {"value": 2.0, "trace_id": "dddd"}
        # The extended snapshot still passes the shipped validator.
        assert validate_metrics(snap) == []

    def test_validator_flags_malformed_exemplars(self):
        snap = _snapshot(fast=1)
        entry = snap["histograms"]["repro_serve_request_seconds"]["series"][0]
        entry["exemplars"] = [{"value": "slow", "trace_id": 7}]
        problems = validate_metrics(snap)
        assert any("exemplars" in p for p in problems)
