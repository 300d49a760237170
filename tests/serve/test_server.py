"""The asyncio schedule server: coalescing, admission, deadlines, drain.

These are the acceptance tests of the serving layer:

(a) N concurrent identical requests trigger exactly one planner
    evaluation (``TestCoalescing``);
(b) requests beyond the admission bound get an explicit overload
    response instead of queueing unboundedly (``TestAdmission``);
(c) a drain (the SIGTERM path) answers in-flight requests before exit
    (``TestDrain``);
(d) with a store, a memory hit is answered on the event loop and only a
    miss takes a flight to a planner thread (``TestMemoryHitsOnTheLoop``).

Deterministic concurrency comes from injected ``plan_fn`` fakes that
block on events, which run without a store; the tests that pass a store
run the real planner.
"""

import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import repro.service.api as api
from repro.core.nonsleeping import mols_schedule
from repro.core.planner import GridPoint, evaluate_grid_point
from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import validate_snapshot as validate
from repro.obs.profile import parse_collapsed
from repro.obs.timeseries import (
    counter_delta,
    counter_total,
    parse_history,
    validate_history,
)
from repro.obs.tracing import Tracer, set_default_tracer
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import BackgroundServer, ServeConfig
from repro.service.api import (
    ProvisionRequest,
    ProvisionResult,
    provision_batch,
)
from repro.service.store import ScheduleStore


@pytest.fixture(scope="module")
def tiny_plan():
    """One real, cheap plan to hand out from fake plan functions."""
    point = GridPoint("mols", mols_schedule(12, 2), 2, 4)
    return evaluate_grid_point(point, 2)


def _counting_plan_fn(tiny_plan, delay=0.0, release=None):
    """A plan_fn that counts calls; optionally sleeps or blocks."""
    calls = []
    lock = threading.Lock()

    def fn(request: ProvisionRequest) -> ProvisionResult:
        with lock:
            calls.append(request)
        if release is not None:
            assert release.wait(timeout=30.0)
        elif delay:
            time.sleep(delay)
        return ProvisionResult(request, tiny_plan)

    fn.calls = calls
    return fn


class TestEndpoints:
    def test_healthz_and_metrics(self, tiny_plan):
        reg = MetricsRegistry()
        fn = _counting_plan_fn(tiny_plan)
        with BackgroundServer(ServeConfig(port=0), registry=reg,
                              plan_fn=fn) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            health = client.health()
            assert health["ok"] is True
            assert health["status"] == "serving"
            client.provision([{"n": 12, "d": 2, "max_duty": 0.5}],
                             include_schedules=False)
            # The JSON snapshot passes the shipped schema validator.
            snap = client.metrics_snapshot()
            assert validate(snap) == []
            assert "repro_serve_requests_total" in snap["counters"]
            # The Prometheus text carries the same series.
            text = client.metrics_text()
            assert "# TYPE repro_serve_requests_total counter" in text
            assert 'endpoint="/provision"' in text

    def test_http_errors_are_versioned_json(self, tiny_plan):
        with BackgroundServer(ServeConfig(port=0),
                              plan_fn=_counting_plan_fn(tiny_plan)) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            for method, path, body, status, code in [
                    ("GET", "/nope", None, 404, "not-found"),
                    ("POST", "/healthz", None, 405, "method-not-allowed"),
                    ("POST", "/provision", {"requests": []}, 400,
                     "bad-request"),
            ]:
                got_status, data, _ct = client.request(method, path, body)
                doc = json.loads(data)
                assert got_status == status
                assert doc["ok"] is False
                assert doc["error"]["code"] == code
                assert doc["protocol"] == 1

    def test_malformed_json_and_oversized_body(self, tiny_plan):
        config = ServeConfig(port=0, max_body_bytes=128)
        with BackgroundServer(config,
                              plan_fn=_counting_plan_fn(tiny_plan)) as bs:
            conn = http.client.HTTPConnection(bs.host, bs.port, timeout=10)
            conn.request("POST", "/provision", body=b"{broken",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            doc = json.loads(resp.read())
            conn.close()
            assert resp.status == 400
            assert doc["error"]["code"] == "bad-request"

            conn = http.client.HTTPConnection(bs.host, bs.port, timeout=10)
            conn.request("POST", "/provision", body=b"x" * 4096,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            doc = json.loads(resp.read())
            conn.close()
            assert resp.status == 413
            assert doc["error"]["code"] == "payload-too-large"


def _wait_coalesced(bs, n_requests):
    """Wait until *n_requests* have led or joined a coalesced flight.

    A request counts as active when it is admitted, before its body is
    parsed and it reaches the coalescer; ``Coalescer.run`` counts it as
    led or joined before its first await.
    """
    counter = bs.server.registry.get("repro_serve_coalesce_total")
    deadline = time.monotonic() + 20
    while (counter.value(result="led")
           + counter.value(result="joined")) < n_requests:
        assert time.monotonic() < deadline, "coalescing stalled"
        time.sleep(0.005)


class TestCoalescing:
    def test_concurrent_identical_requests_one_evaluation(self, tiny_plan):
        """(a) N identical in-flight requests -> exactly 1 planner call."""
        release = threading.Event()
        fn = _counting_plan_fn(tiny_plan, release=release)
        reg = MetricsRegistry()
        n_clients = 8
        with BackgroundServer(ServeConfig(port=0, jobs=4, max_inflight=32),
                              registry=reg, plan_fn=fn) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            doc = {"n": 12, "d": 2, "max_duty": 0.5}

            def call():
                return client.provision([doc], include_schedules=False)

            with ThreadPoolExecutor(n_clients) as pool:
                futures = [pool.submit(call) for _ in range(n_clients)]
                # Wait until every request is parked on the single
                # coalesced flight, then release the planner.
                _wait_coalesced(bs, n_clients)
                release.set()
                results = [f.result(timeout=30) for f in futures]

            assert len(fn.calls) == 1  # the acceptance criterion
            for res in results:
                assert res[0]["family"] == "mols"
            counter = reg.get("repro_serve_coalesce_total")
            assert counter.value(result="led") == 1
            assert counter.value(result="joined") == n_clients - 1

    def test_joined_waiters_get_their_own_request_echo(self, tiny_plan):
        """Same signature, different spelling: each caller sees its own."""
        release = threading.Event()
        fn = _counting_plan_fn(tiny_plan, release=release)
        # A registry of its own: _wait_coalesced must count this
        # server's two requests, not counts earlier servers left in the
        # process default registry.
        with BackgroundServer(ServeConfig(port=0, jobs=2),
                              registry=MetricsRegistry(), plan_fn=fn) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            docs = [{"n": 12, "d": 2, "max_duty": 0.5},
                    {"n": 12, "d": 2, "max_duty": "1/2"}]

            with ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(
                    lambda d=d: client.provision([d],
                                                 include_schedules=False))
                    for d in docs]
                _wait_coalesced(bs, 2)
                release.set()
                results = [f.result(timeout=30) for f in futures]
            assert len(fn.calls) == 1  # "1/2" == 0.5 by signature
            echoes = sorted(str(r[0]["request"]["max_duty"])
                            for r in results)
            assert echoes == ["0.5", "1/2"]


class TestAdmission:
    def test_overload_is_explicit_not_queued(self, tiny_plan):
        """(b) beyond max_inflight -> immediate 503 overloaded."""
        release = threading.Event()
        fn = _counting_plan_fn(tiny_plan, release=release)
        config = ServeConfig(port=0, jobs=1, max_inflight=2)
        with BackgroundServer(config, plan_fn=fn) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            # Distinct signatures so nothing coalesces.
            docs = [{"n": 12, "d": 2, "max_duty": 0.5},
                    {"n": 15, "d": 2, "max_duty": 0.5}]
            with ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(
                    lambda d=d: client.provision([d],
                                                 include_schedules=False))
                    for d in docs]
                deadline = time.monotonic() + 20
                while bs.server.active < 2:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                # The bound is reached: the next request is refused NOW,
                # while the first two are still in flight.
                t0 = time.monotonic()
                with pytest.raises(ServeError) as excinfo:
                    client.provision([{"n": 16, "d": 3, "max_duty": 0.5}])
                refusal_latency = time.monotonic() - t0
                assert excinfo.value.code == "overloaded"
                assert excinfo.value.status == 503
                assert refusal_latency < 5.0  # refused, not queued
                release.set()
                # The admitted requests still complete normally.
                for f in futures:
                    assert f.result(timeout=30)[0]["family"] == "mols"

    def test_ops_endpoints_bypass_admission(self, tiny_plan):
        release = threading.Event()
        fn = _counting_plan_fn(tiny_plan, release=release)
        config = ServeConfig(port=0, jobs=1, max_inflight=1)
        with BackgroundServer(config, plan_fn=fn) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            with ThreadPoolExecutor(1) as pool:
                future = pool.submit(
                    lambda: client.provision(
                        [{"n": 12, "d": 2, "max_duty": 0.5}],
                        include_schedules=False))
                deadline = time.monotonic() + 20
                while bs.server.active < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                # Saturated — but health and metrics still answer.
                health = client.health()
                assert health["inflight"] == 1
                assert validate(client.metrics_snapshot()) == []
                release.set()
                future.result(timeout=30)


class TestDeadline:
    def test_deadline_exceeded_is_504(self, tiny_plan):
        fn = _counting_plan_fn(tiny_plan, delay=1.0)
        config = ServeConfig(port=0, request_deadline_s=0.05)
        with BackgroundServer(config, plan_fn=fn) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            with pytest.raises(ServeError) as excinfo:
                client.provision([{"n": 12, "d": 2, "max_duty": 0.5}])
            assert excinfo.value.code == "deadline-exceeded"
            assert excinfo.value.status == 504


class TestDrain:
    def test_drain_answers_inflight_then_refuses_and_exits(self, tiny_plan):
        """(c) drain: in-flight completes, new work refused, server exits."""
        release = threading.Event()
        fn = _counting_plan_fn(tiny_plan, release=release)
        bs = BackgroundServer(ServeConfig(port=0, jobs=2), plan_fn=fn)
        with bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            with ThreadPoolExecutor(1) as pool:
                future = pool.submit(
                    lambda: client.provision(
                        [{"n": 12, "d": 2, "max_duty": 0.5}],
                        include_schedules=False))
                deadline = time.monotonic() + 20
                while bs.server.active < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)

                # SIGTERM path: begin_drain is what the handler calls.
                bs.loop.call_soon_threadsafe(bs.server.begin_drain)
                deadline = time.monotonic() + 20
                while not bs.server.draining:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)

                # New provisioning work is refused with the draining code.
                with pytest.raises(ServeError) as excinfo:
                    client.provision([{"n": 15, "d": 2, "max_duty": 0.5}])
                assert excinfo.value.code == "draining"
                # Health reports the drain while it is in progress.
                assert client.health()["status"] == "draining"

                # The in-flight request still gets its real answer.
                release.set()
                assert future.result(timeout=30)[0]["family"] == "mols"
        # Exiting the context joined the thread: the server fully exited
        # only after the in-flight response was delivered.
        assert not bs._thread.is_alive()

    def test_stop_after_a_drain_closed_the_loop(self, tiny_plan,
                                                monkeypatch):
        """stop() can find the thread alive just after a drain begun in
        the block closed the loop; it must join, not raise."""
        bs = BackgroundServer(ServeConfig(port=0),
                              plan_fn=_counting_plan_fn(tiny_plan))
        with bs:
            bs.loop.call_soon_threadsafe(bs.server.begin_drain)
            bs._thread.join(timeout=30)
            assert bs.loop.is_closed()
            alive = iter([True])  # the check ran before the thread ended
            monkeypatch.setattr(bs._thread, "is_alive",
                                lambda: next(alive, False))
        assert not threading.Thread.is_alive(bs._thread)

    def test_drain_with_idle_server_exits_immediately(self, tiny_plan):
        bs = BackgroundServer(ServeConfig(port=0),
                              plan_fn=_counting_plan_fn(tiny_plan))
        with bs:
            pass  # __exit__ drains; an idle server must not hang
        assert not bs._thread.is_alive()


class TestRealPlanner:
    def test_end_to_end_with_store(self, tmp_path):
        """The default plan_fn: real planner, hot store, cache hits."""
        reg = MetricsRegistry()
        store = ScheduleStore(tmp_path / "cache", registry=reg)
        with BackgroundServer(ServeConfig(port=0, jobs=2), store=store,
                              registry=reg) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            results = client.provision_results(
                [{"n": 12, "d": 2, "max_duty": 0.5}])
            assert results[0].plan is not None
            assert results[0].plan.duty_cycle <= 0.5
            # Round-trip through the interchange format is exact.
            doc = results[0].to_dict()
            assert ProvisionResult.from_dict(doc).to_dict() == doc
            # Second call: served from the hot plan cache.
            again = client.provision_results(
                [{"n": 12, "d": 2, "max_duty": 0.5}])
            assert again[0].from_cache is True
            assert again[0].plan == results[0].plan

    def test_domain_errors_are_per_request_not_transport(self, tiny_plan):
        with BackgroundServer(ServeConfig(port=0)) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            # n=2 with duty below 2/n is infeasible: a 200 with an error
            # result, exactly like a bad `repro provision` line.
            docs = client.provision([{"n": 2, "d": 1, "max_duty": 0.1}],
                                    include_schedules=False)
            assert "error" in docs[0]
            assert "request" in docs[0]


class TestMemoryHitsOnTheLoop:
    """With a store, a plan its LRU front holds is answered on the event
    loop; only a memory miss takes a coalesced flight to a planner
    thread, which then reads the disk."""

    def test_memory_hits_take_no_flight(self, tmp_path):
        reg = MetricsRegistry()
        store = ScheduleStore(tmp_path / "cache", registry=reg)
        hits = 5
        with BackgroundServer(ServeConfig(port=0), store=store,
                              registry=reg) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            cold = client.plan(12, 2, "1/2", include_schedule=False)
            assert store.stats.memory_hits == 0
            warm = [client.plan(12, 2, "1/2", include_schedule=False)
                    for _ in range(hits)]
        assert cold["from_cache"] is False
        assert all(doc["from_cache"] is True for doc in warm)
        assert store.stats.memory_hits == hits
        assert store.stats.misses == 1 and store.stats.disk_hits == 0
        assert reg.get("repro_serve_plans_computed_total").value() == 1
        coalesce = reg.get("repro_serve_coalesce_total")
        assert coalesce.value(result="led") == 1
        assert coalesce.value(result="joined") == 0

    def test_disk_reads_run_on_a_planner_thread(self, tmp_path,
                                                monkeypatch):
        cache = tmp_path / "cache"
        provision_batch([ProvisionRequest(12, 2, "1/2")],
                        store=ScheduleStore(cache))
        readers = []
        real_read = Path.read_text

        def read_text(path, *args, **kwargs):
            if cache in path.parents:
                readers.append(threading.current_thread().name)
            return real_read(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", read_text)
        reg = MetricsRegistry()
        store = ScheduleStore(cache, registry=reg)  # its front is empty
        with BackgroundServer(ServeConfig(port=0), store=store,
                              registry=reg) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            docs = [client.plan(12, 2, "1/2", include_schedule=False)
                    for _ in range(2)]
        assert [doc["from_cache"] for doc in docs] == [True, True]
        assert len(readers) == 1
        assert readers[0].startswith("repro-serve-plan")
        assert store.stats.disk_hits == 1 and store.stats.memory_hits == 1
        assert reg.get("repro_serve_plans_computed_total").value() == 1

    def test_concurrent_cold_requests_build_once(self, tmp_path,
                                                 monkeypatch):
        release = threading.Event()
        builds = []
        real_build = api.evaluate_grid_point

        def slow_build(*args, **kwargs):
            builds.append(args)
            assert release.wait(timeout=30.0)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(api, "evaluate_grid_point", slow_build)
        reg = MetricsRegistry()
        store = ScheduleStore(tmp_path / "cache", registry=reg)
        n_clients = 6
        with BackgroundServer(ServeConfig(port=0, jobs=2, max_inflight=16),
                              store=store, registry=reg) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            with ThreadPoolExecutor(n_clients) as pool:
                futures = [pool.submit(client.plan, 12, 2, "1/2",
                                       include_schedule=False)
                           for _ in range(n_clients)]
                _wait_coalesced(bs, n_clients)
                release.set()
                docs = [f.result(timeout=30) for f in futures]
        assert len(builds) == 1
        assert store.stats.stores == 1
        assert all(doc["from_cache"] is False for doc in docs)
        coalesce = reg.get("repro_serve_coalesce_total")
        assert coalesce.value(result="led") == 1
        assert coalesce.value(result="joined") == n_clients - 1
        assert reg.get("repro_serve_plans_computed_total").value() == 1

    def test_a_hits_timeline_has_no_pool_hop(self, tmp_path):
        old = set_default_tracer(Tracer())
        try:
            with BackgroundServer(ServeConfig(port=0),
                                  store=ScheduleStore(tmp_path / "cache")
                                  ) as bs:
                client = ServeClient(bs.host, bs.port, retries=0)
                body = {"n": 12, "d": 2, "max_duty": "1/2",
                        "include_schedule": False}
                cold = client.call("POST", "/plan", dict(body))
                hit = client.call("POST", "/plan", dict(body))
                traces = client.debugz()["traces"]
        finally:
            set_default_tracer(old)
        by_trace = {trace[0]["trace_id"]: trace for trace in traces}
        miss = {s["name"] for s in by_trace[cold["trace_id"]]}
        assert {"serve.coalesce.lead", "serve.pool"} <= miss
        spans = {s["name"]: s for s in by_trace[hit["trace_id"]]
                 if s["name"] != "client.call"}
        assert set(spans) == {"serve.request", "serve.plan", "store.get"}
        assert spans["store.get"]["attrs"]["outcome"] == "memory-hit"
        assert spans["store.get"]["parent_id"] \
            == spans["serve.plan"]["span_id"]
        assert spans["serve.plan"]["parent_id"] \
            == spans["serve.request"]["span_id"]


def _post_raw(bs, path: str, doc: dict) -> bytes:
    """POST *doc* to the background server; the response body's bytes."""
    conn = http.client.HTTPConnection(bs.host, bs.port, timeout=30)
    try:
        conn.request("POST", path, body=json.dumps(doc).encode("utf-8"),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        body = resp.read()
    finally:
        conn.close()
    assert resp.status == 200, body
    return body


def _dumped(trace_id: str, **payload) -> bytes:
    """A success body as ``json.dumps`` of the whole envelope writes it."""
    return (json.dumps(protocol.ok_doc(**payload, trace_id=trace_id))
            + "\n").encode("utf-8")


class TestResponseBytes:
    """``/plan`` and ``/provision`` bodies, assembled from result texts,
    are byte for byte ``json.dumps`` of the envelope of ``to_dict``s."""

    #: Escaped by json.dumps: a quote and a non-ASCII character.
    TRACE = 'bytes-"\u00e9"-1'

    def test_plan_bodies(self, tmp_path):
        request = ProvisionRequest(12, 2, "1/2")
        infeasible = ProvisionRequest(15, 2, 0.05)
        built, failed = provision_batch([request, infeasible])
        hit = replace(built, from_cache=True)
        with BackgroundServer(ServeConfig(port=0),
                              store=ScheduleStore(tmp_path / "cache")) as bs:
            def plan(req, **extra):
                return _post_raw(bs, "/plan", {**req.to_dict(), **extra,
                                               "trace_id": self.TRACE})

            cold = plan(request)
            memory = plan(request)
            bare = plan(request, include_schedule=False)
            error = plan(infeasible)
            assert bs.server.store.stats.memory_hits == 2
        assert cold == _dumped(self.TRACE, result=built.to_dict())
        assert memory == _dumped(self.TRACE, result=hit.to_dict())
        assert bare == _dumped(self.TRACE, result=hit.to_dict(
            include_schedule=False))
        assert error == _dumped(self.TRACE, result=failed.to_dict())

    def test_provision_bodies(self, tmp_path):
        requests = [ProvisionRequest(12, 2, 0.5),
                    ProvisionRequest(12, 2, Fraction(1, 2)),
                    ProvisionRequest(16, 3, 0.5, balanced=True),
                    ProvisionRequest(15, 2, 0.05),
                    ProvisionRequest(15, 99, 0.4)]
        expected = provision_batch(requests)
        hits = [r if r.error else replace(r, from_cache=True)
                for r in expected]
        body = {"requests": [r.to_dict() for r in requests],
                "trace_id": self.TRACE}
        with BackgroundServer(ServeConfig(port=0),
                              store=ScheduleStore(tmp_path / "cache")) as bs:
            cold = _post_raw(bs, "/provision", body)
            memory = _post_raw(bs, "/provision", body)
            bare = _post_raw(bs, "/provision",
                             {**body, "include_schedules": False})
            # Three per warm batch: each (12, 2, 1/2) spelling and the
            # (16, 3) class read the LRU front on their own.
            assert bs.server.store.stats.memory_hits == 6
        assert cold == _dumped(self.TRACE,
                               results=[r.to_dict() for r in expected])
        assert memory == _dumped(self.TRACE,
                                 results=[r.to_dict() for r in hits])
        assert bare == _dumped(self.TRACE, results=[
            r.to_dict(include_schedule=False) for r in hits])


class TestObservabilityEndpoints:
    def test_metrics_history_accumulates_and_validates(self, tiny_plan):
        fn = _counting_plan_fn(tiny_plan)
        config = ServeConfig(port=0, history_interval_s=0.05,
                             history_capacity=16)
        with BackgroundServer(config, plan_fn=fn) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            client.provision([{"n": 12, "d": 2, "max_duty": 0.5}],
                             include_schedules=False)
            deadline = time.monotonic() + 20
            while True:
                doc = client.metrics_history()
                samples = parse_history(doc)
                # Wait for a scrape that has seen the provision above.
                if len(samples) >= 2 and counter_total(
                        samples[-1]["snapshot"],
                        "repro_serve_requests_total") > 0:
                    break
                assert time.monotonic() < deadline
                time.sleep(0.02)
        # The payload passes the shipped schema validator end to end.
        assert validate_history(doc) == []
        assert doc["capacity"] == 16
        assert doc["interval_s"] == 0.05
        # The ring's snapshots support the delta math obs top runs on.
        delta = counter_delta(samples[0]["snapshot"], samples[-1]["snapshot"],
                              "repro_serve_requests_total")
        assert delta >= 0.0

    def test_history_ring_is_bounded(self, tiny_plan):
        config = ServeConfig(port=0, history_interval_s=0.01,
                             history_capacity=3)
        with BackgroundServer(config,
                              plan_fn=_counting_plan_fn(tiny_plan)) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            deadline = time.monotonic() + 20
            while len(parse_history(client.metrics_history())) < 3:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(0.1)  # many more scrapes than the ring holds
            assert len(parse_history(client.metrics_history())) == 3

    def test_profilez_sees_the_worker_pool_under_load(self, tiny_plan):
        """Acceptance: a loaded server's profile shows worker-pool frames."""
        release = threading.Event()
        fn = _counting_plan_fn(tiny_plan, release=release)
        with BackgroundServer(ServeConfig(port=0, jobs=2),
                              plan_fn=fn) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            with ThreadPoolExecutor(1) as pool:
                future = pool.submit(
                    lambda: client.provision(
                        [{"n": 12, "d": 2, "max_duty": 0.5}],
                        include_schedules=False))
                deadline = time.monotonic() + 20
                while bs.server.active < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                # The pool thread is parked inside the plan_fn: profile it.
                text = client.profilez(seconds=0.3, hz=200)
                release.set()
                future.result(timeout=30)
        counts = parse_collapsed(text)
        assert counts  # non-empty and parseable
        pool_stacks = [s for s in counts
                       if s[0].startswith("thread:repro-serve-plan")]
        assert pool_stacks
        # The blocked plan function itself is on a pool stack.
        assert any("fn" in label for stack in pool_stacks
                   for label in stack)

    def test_profilez_validates_its_query(self, tiny_plan):
        config = ServeConfig(port=0, profilez_max_seconds=1.0)
        with BackgroundServer(config,
                              plan_fn=_counting_plan_fn(tiny_plan)) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            for query in ("seconds=999", "seconds=0", "seconds=nope",
                          "hz=0", "hz=99999", "hz=1.5"):
                status, data, _ct = client.request("GET",
                                                   f"/profilez?{query}")
                assert status == 400, query
                doc = json.loads(data.decode("utf-8"))
                assert doc["error"]["code"] == "bad-request"
            with pytest.raises(ServeError) as excinfo:
                client.profilez(seconds=999)
            assert excinfo.value.code == "bad-request"

    def test_profilez_default_window_answers(self, tiny_plan):
        with BackgroundServer(ServeConfig(port=0),
                              plan_fn=_counting_plan_fn(tiny_plan)) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            status, data, content_type = client.request(
                "GET", "/profilez?seconds=0.05")
            assert status == 200
            assert content_type.startswith("text/plain")
            assert parse_collapsed(data.decode("utf-8"))

    def test_obs_top_once_renders_a_live_server(self, tiny_plan, capsys):
        from repro.cli import main as cli_main

        config = ServeConfig(port=0, history_interval_s=0.05)
        with BackgroundServer(config,
                              plan_fn=_counting_plan_fn(tiny_plan)) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            client.provision([{"n": 12, "d": 2, "max_duty": 0.5}],
                             include_schedules=False)
            deadline = time.monotonic() + 20
            while True:
                samples = parse_history(client.metrics_history())
                if len(samples) >= 2 and counter_total(
                        samples[-1]["snapshot"],
                        "repro_serve_requests_total") > 0:
                    break
                assert time.monotonic() < deadline
                time.sleep(0.02)
            rc = cli_main(["obs", "top", "--host", bs.host,
                           "--port", str(bs.port), "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "requests" in out and "p99" in out

    def test_obs_top_unreachable_server_errors(self, capsys):
        import socket

        from repro.cli import main as cli_main

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        rc = cli_main(["obs", "top", "--port", str(port), "--once"])
        assert rc == 2
        assert "error" in capsys.readouterr().err
