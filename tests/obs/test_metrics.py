"""The metrics registry: instruments, snapshots, exports."""

import gc
import json
import sys
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    default_registry,
    set_default_registry,
)


class TestInstruments:
    def test_counter_increments_and_totals(self):
        reg = MetricsRegistry()
        lookups = reg.counter("lookups_total", "Lookups by result.")
        hits = lookups.labels(result="hit")
        hits.inc()
        hits.inc(2)
        lookups.inc(result="miss")
        assert lookups.value(result="hit") == 3
        assert lookups.value(result="miss") == 1
        assert lookups.value(result="never") == 0
        assert lookups.total() == 4

    def test_counters_only_go_up(self):
        series = MetricsRegistry().counter("c").labels()
        with pytest.raises(ValueError):
            series.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("level")
        gauge.set(5.0)
        gauge.set(2.5)
        assert gauge.value() == 2.5

    def test_histogram_buckets_observations(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(0.1, 1.0, 10.0))
        series = hist.labels()
        for value in (0.05, 0.1, 0.5, 5.0, 50.0):
            series.observe(value)
        # cumulative semantics: le=0.1 catches 0.05 and 0.1 exactly
        assert series.counts == [2, 1, 1, 1]
        assert series.count == 5
        assert series.sum == pytest.approx(55.65)

    def test_histogram_validates_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("a", buckets=())
        with pytest.raises(ValueError):
            reg.histogram("b", buckets=(1.0, 1.0))

    def test_accessors_are_idempotent_and_kind_checked(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        assert reg.names() == ["x"]
        assert reg.get("x").kind == "counter"
        assert reg.get("missing") is None


class TestSnapshotMerge:
    def test_snapshot_is_self_describing_json(self):
        reg = MetricsRegistry()
        reg.counter("tasks_total", "Tasks.").labels(status="ok").inc(3)
        reg.gauge("rate").labels().set(7.0)
        reg.histogram("exec_s", buckets=(0.1, 1.0)).labels().observe(0.05)
        snap = reg.snapshot()
        assert snap["format"] == SNAPSHOT_FORMAT
        assert snap["version"] == SNAPSHOT_VERSION
        json.dumps(snap)  # plain data, no custom types
        assert snap["counters"]["tasks_total"]["series"] == [
            {"labels": {"status": "ok"}, "value": 3.0}]
        hist = snap["histograms"]["exec_s"]
        assert hist["buckets"] == [0.1, 1.0]
        assert hist["series"][0]["counts"] == [1, 0, 0]


class TestExports:
    def test_write_json_round_trips(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c", "help text").labels(kind="a").inc(2)
        path = tmp_path / "m.json"
        reg.write_json(path)
        doc = json.loads(path.read_text())
        assert doc == reg.snapshot()

    def test_snapshot_passes_the_shipped_validator(self, tmp_path):
        from repro.obs.metrics import validate_snapshot as validate
        reg = MetricsRegistry()
        reg.counter("c", "help").labels(status="ok").inc()
        reg.gauge("g", "help").labels().set(1.0)
        reg.histogram("h", "help").labels().observe(0.2)
        assert validate(reg.snapshot()) == []
        assert validate({"format": "nope"}) != []

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "Requests.").labels(code="200").inc(5)
        reg.histogram("lat", buckets=(0.1, 1.0)).labels().observe(0.05)
        text = reg.to_prometheus()
        assert "# TYPE req_total counter" in text
        assert 'req_total{code="200"} 5' in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum" in text and "lat_count" in text

    def test_prometheus_escapes_label_values(self):
        # Request-derived labels (paths, error strings) may carry any of
        # the three characters the exposition format reserves.
        reg = MetricsRegistry()
        reg.counter("c", "help").labels(
            path='a\\b"c\nd', code="200").inc()
        text = reg.to_prometheus()
        assert 'path="a\\\\b\\"c\\nd"' in text
        # The series line itself stays a single physical line.
        series_lines = [ln for ln in text.splitlines() if ln.startswith("c{")]
        assert len(series_lines) == 1

    def test_prometheus_escapes_help_text(self):
        reg = MetricsRegistry()
        reg.counter("c", "first\nsecond \\ done").labels().inc()
        text = reg.to_prometheus()
        assert "# HELP c first\\nsecond \\\\ done" in text
        assert sum(1 for ln in text.splitlines()
                   if ln.startswith("# HELP")) == 1

    def test_prometheus_plain_labels_untouched(self):
        reg = MetricsRegistry()
        reg.counter("c", "h").labels(endpoint="/provision").inc(3)
        assert 'c{endpoint="/provision"} 3' in reg.to_prometheus()

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_prometheus_exemplar_histogram_exports_clean(self):
        # Exemplars live in the JSON snapshot only; the text exposition
        # of an exemplar-bearing histogram must stay plain and parseable.
        reg = MetricsRegistry()
        series = reg.histogram("lat", "h", buckets=(0.1, 1.0),
                               exemplars=True).labels(endpoint="/plan")
        series.observe(0.05, trace_id="ab" * 8)
        series.observe(5.0, trace_id="cd" * 8)
        text = reg.to_prometheus()
        assert 'lat_bucket{endpoint="/plan",le="0.1"} 1' in text
        assert 'lat_bucket{endpoint="/plan",le="+Inf"} 2' in text
        assert "trace_id" not in text  # exemplars never leak into text
        # ...but they do surface in the snapshot, validator-clean.
        entry = reg.snapshot()["histograms"]["lat"]["series"][0]
        assert any(ex and ex["trace_id"] == "cd" * 8
                   for ex in entry["exemplars"])

    def test_prometheus_label_with_backslash_and_quote(self):
        # Both escapes in one value: the backslash must be escaped
        # first, or the quote's escape gets double-escaped.  Asserted by
        # round-trip: a standard exposition-format unescape of the
        # emitted label recovers the original value exactly.
        import re

        value = 'C:\\tmp\\"x"'
        reg = MetricsRegistry()
        reg.counter("c", "h").labels(path=value).inc()
        series_lines = [ln for ln in reg.to_prometheus().splitlines()
                        if ln.startswith("c{")]
        assert len(series_lines) == 1
        match = re.search(r'path="((?:[^"\\]|\\.)*)"', series_lines[0])
        assert match is not None

        def unescape(s):
            out, i = [], 0
            while i < len(s):
                if s[i] == "\\" and i + 1 < len(s):
                    out.append("\n" if s[i + 1] == "n" else s[i + 1])
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            return "".join(out)

        assert unescape(match.group(1)) == value

    def test_prometheus_empty_registry_is_comment_only(self):
        text = MetricsRegistry().to_prometheus()
        assert text  # never a zero-byte scrape body
        assert text.endswith("\n")
        assert all(line.startswith("#")
                   for line in text.splitlines() if line.strip())

    def test_histogram_buckets_are_per_instance(self):
        reg = MetricsRegistry()
        fine = reg.histogram("fine", "h", buckets=(0.0001, 0.001, 0.01))
        coarse = reg.histogram("coarse", "h", buckets=(1.0, 10.0))
        fine.labels().observe(0.0005)
        coarse.labels().observe(0.0005)
        snap = reg.snapshot()
        assert snap["histograms"]["fine"]["buckets"] == [0.0001, 0.001, 0.01]
        assert snap["histograms"]["coarse"]["buckets"] == [1.0, 10.0]
        # The same observation lands in different buckets per layout.
        assert snap["histograms"]["fine"]["series"][0]["counts"] == [0, 1,
                                                                     0, 0]
        assert snap["histograms"]["coarse"]["series"][0]["counts"] == [1, 0,
                                                                       0]

    def test_serve_latency_buckets_resolve_sub_millisecond(self):
        from repro.serve.server import SERVE_LATENCY_BUCKETS

        assert list(SERVE_LATENCY_BUCKETS) == sorted(SERVE_LATENCY_BUCKETS)
        # Sub-ms resolution for the coalesced fast path, and 1.0s still a
        # bound so the default SLO threshold lands exactly on a bucket.
        assert sum(1 for b in SERVE_LATENCY_BUCKETS if b < 0.001) >= 3
        assert 1.0 in SERVE_LATENCY_BUCKETS


class TestDefaultRegistry:
    def test_set_default_registry_swaps_and_returns_old(self):
        mine = MetricsRegistry()
        old = set_default_registry(mine)
        try:
            assert default_registry() is mine
        finally:
            set_default_registry(old)
        assert default_registry() is old


class TestThreads:
    def test_scrapes_race_worker_threads_adding_metrics_and_series(self):
        """Worker threads register metrics and bind new series while a
        scrape walks the registry: no scrape fails, and threads binding
        the same new labels at once share one series."""
        reg = MetricsRegistry()
        counter = reg.counter("tasks_total")
        hist = reg.histogram("task_seconds")
        keys = 3000
        start = threading.Barrier(4)
        done = threading.Event()
        failures = []

        def bind():
            try:
                start.wait(timeout=10)
                for i in range(keys):
                    counter.labels(key=i).inc()
                    hist.labels(key=i).observe(0.01)
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        def register():
            try:
                start.wait(timeout=10)
                for i in range(keys):
                    reg.gauge(f"level_{i}").set(i)
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        def scrape():
            try:
                start.wait(timeout=10)
                while not done.is_set():
                    reg.snapshot()
                    reg.to_prometheus()
                    counter.total()
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        workers = [threading.Thread(target=bind),
                   threading.Thread(target=bind),
                   threading.Thread(target=register)]
        scraper = threading.Thread(target=scrape)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the four threads
        try:
            for t in [*workers, scraper]:
                t.start()
            for t in workers:
                t.join(timeout=60)
            done.set()
            scraper.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [*workers, scraper])
        assert failures == []
        assert len(reg.names()) == 2 + keys
        assert [s.value for s in counter.series()] == [2.0] * keys
        assert [s.count for s in hist.series()] == [2] * keys

    def test_scrape_survives_a_collection_mid_copy(self):
        """A garbage collection can run while a scrape copies the
        registry, and a finalizer's Python code can then switch threads
        and register a metric.  Registering from the finalizer itself
        makes that interleaving deterministic: no scrape may fail."""
        reg = MetricsRegistry()
        # More entries than the interpreter keeps spare pairs for, so a
        # copy of items() has to allocate and can trigger a collection.
        keys = 3000
        for i in range(keys):
            reg.gauge(f"level_{i}").set(i)
        late = iter(range(200))

        class Garbage:
            def __init__(self):
                self.cycle = self          # only the collector frees it

            def __del__(self):
                i = next(late, None)
                if i is not None:
                    reg.gauge(f"late_{i}")
                    Garbage()              # for the next collection

        thresholds = gc.get_threshold()
        Garbage()
        gc.set_threshold(1)                # collect at every allocation
        try:
            reg.snapshot()
            reg.to_prometheus()
        finally:
            gc.set_threshold(*thresholds)
        assert len(reg.names()) == keys + 200   # every finalizer ran
