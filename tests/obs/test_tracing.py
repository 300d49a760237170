"""The span tracer: nesting, capacity, exports, profile summary."""

import json
import sys
import threading

import pytest

from repro.obs.tracing import (
    Tracer,
    default_tracer,
    set_default_tracer,
    span,
)


class TestSpans:
    def test_span_records_name_attrs_and_duration(self):
        tracer = Tracer()
        with tracer.span("stage.one", n=12):
            pass
        (record,) = tracer.spans
        assert record.name == "stage.one"
        assert record.attrs == {"n": 12}
        assert record.duration_s >= 0.0
        assert record.depth == 0

    def test_spans_nest_with_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {r.name: r for r in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        # inner finishes first, so it is recorded first
        assert tracer.spans[0].name == "inner"

    def test_exception_keeps_the_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert [r.name for r in tracer.spans] == ["doomed"]
        with tracer.span("next"):  # depth restored for the next span
            pass
        assert tracer.spans[-1].depth == 0

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ignored"):
            pass
        assert tracer.spans == []

    def test_capacity_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [r.name for r in tracer.spans] == ["s2", "s3", "s4"]
        assert tracer.dropped == 2
        tracer.clear()
        assert tracer.spans == [] and tracer.dropped == 0


class TestThreads:
    def test_depth_is_per_thread(self):
        """A top-level span is depth 0 whatever another thread has open."""
        tracer = Tracer()
        inside, done = threading.Event(), threading.Event()

        def hold_a_span():
            with tracer.span("a.outer"):
                inside.set()
                assert done.wait(timeout=10)

        holder = threading.Thread(target=hold_a_span)
        holder.start()
        try:
            assert inside.wait(timeout=10)
            with tracer.span("b.top"):
                with tracer.span("b.inner"):
                    pass
        finally:
            done.set()
            holder.join(timeout=10)
        assert not holder.is_alive()
        depths = {r.name: r.depth for r in tracer.spans}
        assert depths == {"a.outer": 0, "b.top": 0, "b.inner": 1}

    def test_concurrent_spans_keep_the_ring_exact(self):
        """Threads all inside a span at once: depths stay per thread,
        the ring keeps exactly *capacity* spans and counts the rest."""
        tracer = Tracer(capacity=50)
        threads, per_thread = 4, 200
        inside = threading.Barrier(threads)

        def record():
            with tracer.span("outer"):
                inside.wait(timeout=10)
                for i in range(per_thread):
                    with tracer.span("inner", i=i):
                        pass

        workers = [threading.Thread(target=record) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the recording threads
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        spans = tracer.spans
        assert len(spans) == 50
        assert tracer.dropped == threads * (per_thread + 1) - 50
        assert {(r.name, r.depth) for r in spans} \
            <= {("outer", 0), ("inner", 1)}


class TestExports:
    def test_to_jsonl_round_trips(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", k="v"):
            with tracer.span("b"):
                pass
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(path)
        lines = [json.loads(line)
                 for line in path.read_text().splitlines() if line]
        assert lines == [r.to_dict() for r in tracer.spans]
        assert {line["name"] for line in lines} == {"a", "b"}

    def test_summary_aggregates_per_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("hot"):
                pass
        with tracer.span("cold"):
            pass
        summary = tracer.summary()
        assert summary["hot"]["count"] == 3
        assert summary["hot"]["total_s"] == pytest.approx(
            sum(r.duration_s for r in tracer.spans if r.name == "hot"))
        assert summary["hot"]["min_s"] <= summary["hot"]["mean_s"] \
            <= summary["hot"]["max_s"]

    def test_summary_table_lists_spans_and_drops(self):
        tracer = Tracer(capacity=1)
        with tracer.span("kept"):
            pass
        with tracer.span("kept"):
            pass
        table = tracer.summary_table()
        assert "kept" in table
        assert "span" in table.splitlines()[0]
        assert "1 oldest spans dropped" in table


class TestDefaultTracer:
    def test_module_level_span_uses_the_installed_default(self):
        mine = Tracer()
        old = set_default_tracer(mine)
        try:
            with span("via.module", x=1):
                pass
            assert default_tracer() is mine
        finally:
            set_default_tracer(old)
        assert [r.name for r in mine.spans] == ["via.module"]
        assert default_tracer() is old
