"""End-to-end request correlation through the serve tier.

The acceptance tests of the tracing layer: one trace id minted (or
forwarded) per logical request survives the client retry loop, the
failover rotation, the asyncio server, the coalescer and the thread
pool, and everything the request touched is reassemblable from the span
dump alone.
"""

import json
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.nonsleeping import mols_schedule
from repro.core.planner import GridPoint, evaluate_grid_point
from repro.obs import context as ctx
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, assemble_traces, set_default_tracer
from repro.serve.client import ServeClient
from repro.serve.failover import FailoverClient
from repro.serve.server import BackgroundServer, ServeConfig
from repro.service.api import ProvisionRequest, ProvisionResult

sys.path.insert(0, str(Path(__file__).parents[2] / "tools"))
try:
    from validate_trace import validate_lines as validate_trace_lines
finally:
    sys.path.pop(0)


@pytest.fixture(scope="module")
def tiny_plan():
    """One real, cheap plan to hand out from fake plan functions."""
    point = GridPoint("mols", mols_schedule(12, 2), 2, 4)
    return evaluate_grid_point(point, 2)


@pytest.fixture
def tracer():
    """A fresh default tracer per test, restored afterwards."""
    mine = Tracer()
    old = set_default_tracer(mine)
    try:
        yield mine
    finally:
        set_default_tracer(old)


def _plan_fn(tiny_plan, release=None):
    def fn(request: ProvisionRequest) -> ProvisionResult:
        if release is not None:
            assert release.wait(timeout=30.0)
        return ProvisionResult(request, tiny_plan)
    return fn


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


PLAN_DOC = {"n": 12, "d": 2, "max_duty": 0.5, "include_schedule": False}


class TestEndToEnd:
    def test_server_echoes_the_callers_trace_id(self, tiny_plan, tracer):
        with BackgroundServer(ServeConfig(port=0),
                              plan_fn=_plan_fn(tiny_plan)) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            with ctx.trace_context() as tc:
                doc = client.call("POST", "/plan", dict(PLAN_DOC))
            assert doc["trace_id"] == tc.trace_id

    def test_one_trace_spans_client_server_coalescer_pool(self, tiny_plan,
                                                          tracer):
        with BackgroundServer(ServeConfig(port=0),
                              plan_fn=_plan_fn(tiny_plan)) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            doc = client.call("POST", "/plan", dict(PLAN_DOC))
        tid = doc["trace_id"]
        names = {s.name for s in tracer.spans if s.trace_id == tid}
        assert {"client.call", "serve.request", "serve.plan",
                "serve.coalesce.lead"} <= names
        # The dump reassembles into one tree rooted at the client span.
        trees = assemble_traces([s for s in tracer.spans
                                 if s.trace_id == tid])
        roots = trees[tid]
        assert len(roots) == 1
        assert roots[0]["record"].name == "client.call"

    def test_span_dump_passes_the_shipped_validator(self, tiny_plan,
                                                    tracer, tmp_path):
        with BackgroundServer(ServeConfig(port=0),
                              plan_fn=_plan_fn(tiny_plan)) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            client.call("POST", "/plan", dict(PLAN_DOC))
        out = tmp_path / "trace.jsonl"
        tracer.to_jsonl(out)
        assert validate_trace_lines(out.read_text()) == []


class TestCoalescedTraces:
    def test_followers_record_the_leaders_trace_id(self, tiny_plan, tracer):
        """N concurrent identical requests: one execution under the
        leader's trace, join spans tying each follower to it."""
        release = threading.Event()
        n_clients = 4
        with BackgroundServer(ServeConfig(port=0, jobs=2, max_inflight=16),
                              plan_fn=_plan_fn(tiny_plan,
                                               release=release)) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)

            def call():
                return client.call("POST", "/plan", dict(PLAN_DOC))

            with ThreadPoolExecutor(n_clients) as pool:
                futures = [pool.submit(call) for _ in range(n_clients)]
                deadline = time.monotonic() + 20
                while bs.server.active < n_clients:
                    assert time.monotonic() < deadline, "admission stalled"
                    time.sleep(0.005)
                release.set()
                docs = [f.result(timeout=30) for f in futures]

        trace_ids = {doc["trace_id"] for doc in docs}
        assert len(trace_ids) == n_clients  # every caller has its own
        leads = [s for s in tracer.spans if s.name == "serve.coalesce.lead"]
        joins = [s for s in tracer.spans if s.name == "serve.coalesce.join"]
        assert len(leads) == 1
        assert len(joins) == n_clients - 1
        leader_tid = leads[0].trace_id
        assert leader_tid in trace_ids
        for join in joins:
            assert join.attrs["leader_trace_id"] == leader_tid
            assert join.trace_id != leader_tid
            assert join.trace_id in trace_ids


class TestFailoverTrace:
    def test_one_trace_across_rotated_endpoints(self, tiny_plan, tracer):
        """A request that fails over keeps one trace id end to end."""
        dead = f"127.0.0.1:{_free_port()}"
        reg = MetricsRegistry()
        with BackgroundServer(ServeConfig(port=0),
                              plan_fn=_plan_fn(tiny_plan)) as bs:
            fc = FailoverClient([dead, f"{bs.host}:{bs.port}"],
                                retries=2, timeout=5.0, registry=reg,
                                sleep=lambda _s: None)
            doc = fc.call("POST", "/plan", dict(PLAN_DOC))
        tid = doc["trace_id"]
        failover = [s for s in tracer.spans if s.name == "client.failover"]
        assert len(failover) == 1
        assert failover[0].trace_id == tid
        # Every endpoint attempt and the server's work share the trace.
        for name in ("client.call", "serve.request"):
            spans = [s for s in tracer.spans if s.name == name]
            assert spans and all(s.trace_id == tid for s in spans)


class TestSloEndpoint:
    def test_slo_reports_objectives_and_burn_rates(self, tiny_plan, tracer):
        # Own registry: the shared default one may hold 503s from other
        # tests' refusal drills, which would (correctly) burn the SLO.
        with BackgroundServer(ServeConfig(port=0), registry=MetricsRegistry(),
                              plan_fn=_plan_fn(tiny_plan)) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            client.call("POST", "/plan", dict(PLAN_DOC))
            doc = client.slo()
            report = doc["slo"]
            assert report["format"] == "repro-slo"
            assert report["ok"] is True
            by_name = {r["objective"]["name"]: r
                       for r in report["objectives"]}
            assert by_name["serve-latency"]["total"] >= 1
            assert "burn_rates" in by_name["serve-latency"]


class TestDebugz:
    def test_debugz_holds_the_request_spans(self, tiny_plan, tracer):
        with BackgroundServer(ServeConfig(port=0, flight_capacity=8),
                              plan_fn=_plan_fn(tiny_plan)) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            answer = client.call("POST", "/plan", dict(PLAN_DOC))
            doc = client.debugz()
        assert doc["capacity"] == 8
        traces = doc["traces"]
        assert traces  # newest first
        spans = {s["name"]: s for s in traces[0]}
        request = spans["serve.request"]
        assert request["attrs"]["endpoint"] == "/plan"
        assert request["attrs"]["status"] == 200
        assert request["attrs"]["inflight"] == 1
        assert request["trace_id"] == answer["trace_id"]
        # The leader's timeline: coalesce verdict, then the pool hop.
        assert spans["serve.coalesce.lead"]["start_s"] \
            <= spans["serve.pool"]["start_s"]
        offsets = [s["start_s"] for s in traces[0]]
        assert offsets == sorted(offsets)
        dump = "".join(json.dumps(s) + "\n"
                       for trace in traces for s in trace)
        assert validate_trace_lines(dump) == []

    def test_refusals_are_recorded_too(self, tiny_plan, tracer):
        release = threading.Event()
        config = ServeConfig(port=0, jobs=1, max_inflight=1,
                             flight_capacity=8)
        with BackgroundServer(config,
                              plan_fn=_plan_fn(tiny_plan,
                                               release=release)) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            with ThreadPoolExecutor(1) as pool:
                future = pool.submit(
                    lambda: client.call("POST", "/plan", dict(PLAN_DOC)))
                deadline = time.monotonic() + 20
                while bs.server.active < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                status, _data, _ct = client.request(
                    "POST", "/plan",
                    {"n": 15, "d": 2, "max_duty": 0.5})
                assert status == 503
                release.set()
                future.result(timeout=30)
            doc = client.debugz()
        refused = [s for trace in doc["traces"] for s in trace
                   if s["name"] == "serve.refused"]
        assert refused
        assert refused[0]["attrs"]["status"] == 503
        assert refused[0]["attrs"]["code"] == "overloaded"
        assert refused[0]["duration_s"] == 0.0


class TestExemplars:
    def test_latency_exemplars_link_back_to_a_trace(self, tiny_plan,
                                                    tracer):
        reg = MetricsRegistry()
        with BackgroundServer(ServeConfig(port=0), registry=reg,
                              plan_fn=_plan_fn(tiny_plan)) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            answer = client.call("POST", "/plan", dict(PLAN_DOC))
            snap = client.metrics_snapshot()
        series = snap["histograms"]["repro_serve_request_seconds"]["series"]
        exemplars = [ex for entry in series
                     for ex in entry.get("exemplars", []) if ex]
        assert exemplars
        assert answer["trace_id"] in {ex["trace_id"] for ex in exemplars}
