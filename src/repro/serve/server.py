"""The asyncio schedule server: admission control, deadlines, drain.

One process, nine endpoints, no dependencies beyond the stdlib:

========================  ==============================================
``POST /provision``       answer a batch of ``(n, D, duty)`` requests
                          (coalesced per signature, backed by the hot
                          store and worker pool)
``POST /plan``            single-request convenience form of the same
``GET /healthz``          liveness + serving/draining state + inflight
``GET /metrics``          Prometheus text exposition of the registry
``GET /metrics.json``     the same registry as a ``repro-metrics``
                          snapshot (validates with
                          ``tools/validate_metrics.py``)
``GET /metrics/history``  the last K registry snapshots, scraped on a
                          background task every ``history_interval_s``
                          (``repro-metrics-history`` document; feeds
                          ``repro obs top``)
``GET /slo``              objectives evaluated against the live
                          registry, with rolling burn rates
                          (``repro-slo`` report)
``GET /debugz``           the spans of the newest K server traces
                          (answered or refused requests), read from
                          the tracer's ring
``GET /profilez``         sample every server thread (event loop *and*
                          worker pool) for ``?seconds=N`` at ``?hz=H``;
                          returns collapsed stacks (text/plain, ready
                          for flamegraph tooling)
========================  ==============================================

Every admitted request runs inside a
:func:`repro.obs.context.trace_context` — adopted from the body's
additive ``trace_id``/``parent_id`` fields when the client sent them,
freshly generated otherwise — so its spans, its log lines, its store
lookups and its ``/debugz`` timeline all share one ``trace_id``, and
the executor hop propagates the context into the planner thread via
``contextvars.copy_context``.  Success envelopes echo ``trace_id``.

Three properties the one-shot CLI cannot offer, each load-bearing:

* **Warm state.**  One :class:`~repro.service.store.ScheduleStore` and
  one worker pool (a thread pool of ``jobs`` planner slots) live for the
  process lifetime; the cache and the LRU front survive across requests.
* **Admission control.**  At most ``max_inflight`` provisioning requests
  are admitted at once — ``jobs`` of them execute, the rest wait in a
  bounded queue of ``max_inflight - jobs``.  A request beyond the bound
  is answered *immediately* with ``503 overloaded`` instead of queueing
  unboundedly; a client with backoff gets strictly better tail latency
  than an unbounded queue would give it.  Ops endpoints (``/healthz``,
  ``/metrics``) bypass admission so the server stays observable while
  saturated.
* **Graceful drain.**  SIGTERM (or :meth:`ScheduleServer.begin_drain`)
  flips the server into draining: new provisioning work is refused with
  ``503 draining``, every admitted request runs to completion, then the
  listener closes and :meth:`ScheduleServer.wait_closed` returns.

Per-request deadlines (``request_deadline_s``) bound the time a caller
can be held: past the deadline the response is ``504
deadline-exceeded``.  The underlying planner thread is not preempted
(Python threads cannot be), but its result still lands in the store, so
the abandoned work is not wasted — the retry hits the cache.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace as dc_replace
from time import perf_counter
from typing import Any, Callable

from urllib.parse import parse_qs

from repro._validation import check_int
from repro.obs import context as _context
from repro.obs import profile as _profile
from repro.obs import slo as _slo
from repro.obs import timeseries as _timeseries
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.tracing import default_tracer, span
from repro.serve import protocol
from repro.serve.coalesce import Coalescer
from repro.service.api import (
    ProvisionRequest,
    ProvisionResult,
    provision_batch_report,
)
from repro.service.store import ScheduleStore

__all__ = ["ServeConfig", "ScheduleServer", "BackgroundServer",
           "SERVE_LATENCY_BUCKETS"]

_log = get_logger("serve.server")

#: Request-latency histogram bounds.  Warm cache hits answer in well
#: under a millisecond, so the default seconds-flavoured buckets crushed
#: the entire warm distribution into the first bucket; the sub-ms decade
#: here keeps warm p50 readable while the upper bounds still cover cold
#: planner evaluations.  The SLO threshold default (1.0s) stays a bound.
SERVE_LATENCY_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                         0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
                         5.0, 10.0, 30.0)

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout"}

#: Seconds a connection may take to deliver its request head and body
#: before the server hangs up (slow-client protection).
_READ_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of one :class:`ScheduleServer`.

    Attributes
    ----------
    host, port:
        Listen address; port 0 binds an ephemeral port (the bound one is
        readable as :attr:`ScheduleServer.port` after ``start()``).
    jobs:
        Width of the hot worker pool — provisioning requests evaluating
        concurrently.  Admitted requests beyond *jobs* wait for a slot.
    max_inflight:
        Admission bound: provisioning requests admitted at once
        (executing + queued).  Beyond it, ``503 overloaded``.
    request_deadline_s:
        Per-request processing budget in seconds; ``None`` disables.
    max_body_bytes:
        Largest request body accepted; beyond it, ``413``.
    flight_capacity:
        Server traces ``/debugz`` returns, newest first.
    slo_threshold_s, slo_latency_target, slo_availability_target:
        The ``/slo`` endpoint's stock objectives: *slo_latency_target*
        of requests under *slo_threshold_s* (pick a histogram bucket
        bound), *slo_availability_target* of answers non-5xx.
    history_interval_s, history_capacity:
        The ``/metrics/history`` scrape cadence and ring depth — the
        defaults keep 30 minutes of 5-second samples in ~O(capacity)
        memory.
    profilez_max_seconds:
        Longest profiling window one ``GET /profilez`` call may request.
    """

    host: str = "127.0.0.1"
    port: int = 8177
    jobs: int = 2
    max_inflight: int = 64
    request_deadline_s: float | None = 30.0
    max_body_bytes: int = 1 << 20
    flight_capacity: int = 128
    slo_threshold_s: float = 1.0
    slo_latency_target: float = 0.99
    slo_availability_target: float = 0.999
    history_interval_s: float = 5.0
    history_capacity: int = 360
    profilez_max_seconds: float = 30.0

    def __post_init__(self) -> None:
        check_int(self.port, "port", minimum=0)
        check_int(self.jobs, "jobs", minimum=1)
        check_int(self.max_inflight, "max_inflight", minimum=0)
        check_int(self.max_body_bytes, "max_body_bytes", minimum=1)
        check_int(self.flight_capacity, "flight_capacity", minimum=1)
        check_int(self.history_capacity, "history_capacity", minimum=1)
        if self.request_deadline_s is not None \
                and self.request_deadline_s <= 0:
            raise ValueError("request_deadline_s must be positive or None")
        if self.slo_threshold_s <= 0:
            raise ValueError("slo_threshold_s must be positive")
        if self.history_interval_s <= 0:
            raise ValueError("history_interval_s must be positive")
        if self.profilez_max_seconds <= 0:
            raise ValueError("profilez_max_seconds must be positive")
        for name in ("slo_latency_target", "slo_availability_target"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be a fraction in (0, 1)")


class ScheduleServer:
    """One serving process: hot store, hot pool, coalesced planning.

    Lifecycle: ``await start()`` binds the listener; ``await
    wait_closed()`` blocks until a drain completes; ``begin_drain()``
    (signal-handler safe) or ``await drain()`` initiates shutdown.

    *plan_fn* is the per-request computation — by default one
    single-request :func:`~repro.service.api.provision_batch_report`
    against the hot store.  Tests inject counting or blocking fakes here
    to pin down coalescing, overload and drain behaviour
    deterministically.
    """

    def __init__(self, config: ServeConfig | None = None, *,
                 store: ScheduleStore | None = None,
                 registry: MetricsRegistry | None = None,
                 plan_fn: Callable[[ProvisionRequest], ProvisionResult]
                 | None = None) -> None:
        """Build a server (not yet listening; call :meth:`start`)."""
        self.config = config if config is not None else ServeConfig()
        self.store = store
        self.registry = registry if registry is not None \
            else default_registry()
        self._plan_fn = plan_fn if plan_fn is not None else self._plan_one
        self._coalescer = Coalescer(self.registry)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.jobs,
            thread_name_prefix="repro-serve-plan")
        self._active = 0
        self._draining = False
        self._drained: asyncio.Event | None = None
        self._server: asyncio.base_events.Server | None = None
        self.host = self.config.host
        self.port = self.config.port

        self._requests = self.registry.counter(
            "repro_serve_requests_total",
            "HTTP requests answered, by endpoint and outcome code.")
        self._latency = self.registry.histogram(
            "repro_serve_request_seconds",
            "Wall-clock seconds from request head to response flush.",
            buckets=SERVE_LATENCY_BUCKETS, exemplars=True)
        self._inflight_gauge = self.registry.gauge(
            "repro_serve_inflight",
            "Provisioning requests currently admitted.").labels()
        self._computed = self.registry.counter(
            "repro_serve_plans_computed_total",
            "Planner evaluations actually run (post-coalescing).").labels()
        self._objectives = _slo.default_serve_objectives(
            threshold_s=self.config.slo_threshold_s,
            latency_target=self.config.slo_latency_target,
            availability_target=self.config.slo_availability_target)
        self._burn = _slo.BurnRateTracker(self._objectives,
                                          registry=self.registry)
        self._history = _timeseries.SnapshotRing(
            capacity=self.config.history_capacity)
        self._history_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind the listener; returns the concrete ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._drained = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._history_task = asyncio.create_task(self._scrape_history())
        _log.info("serve_started", extra={
            "host": self.host, "port": self.port, "jobs": self.config.jobs,
            "max_inflight": self.config.max_inflight})
        return self.host, self.port

    async def _scrape_history(self) -> None:
        """Background task: snapshot the registry into the history ring.

        Takes an immediate first sample (``/metrics/history`` answers
        from the very first scrape), then one every
        ``history_interval_s`` until cancelled at shutdown.
        """
        while True:
            self._history.append(self.registry.snapshot())
            await asyncio.sleep(self.config.history_interval_s)

    @property
    def draining(self) -> bool:
        """True once shutdown has been initiated."""
        return self._draining

    @property
    def active(self) -> int:
        """Provisioning requests currently admitted."""
        return self._active

    def begin_drain(self) -> None:
        """Initiate shutdown (signal-handler safe, idempotent).

        New provisioning requests are refused with ``503 draining``; the
        listener closes once every admitted request has been answered.
        """
        if self._draining:
            return
        self._draining = True
        _log.info("serve_draining", extra={"inflight": self._active})
        if self._active == 0 and self._drained is not None:
            self._drained.set()

    async def drain(self) -> None:
        """:meth:`begin_drain`, then block until fully closed."""
        self.begin_drain()
        await self.wait_closed()

    async def wait_closed(self) -> None:
        """Block until a drain completes and the listener is closed."""
        if self._server is None or self._drained is None:
            return
        await self._drained.wait()
        if self._history_task is not None:
            self._history_task.cancel()
            try:
                await self._history_task
            except asyncio.CancelledError:
                pass
        self._server.close()
        await self._server.wait_closed()
        # wait=False: a deadline-abandoned planner thread must not block
        # shutdown; its checkpoint into the store already happened or
        # will be discarded with the process.
        self._executor.shutdown(wait=False)
        _log.info("serve_stopped", extra={"host": self.host,
                                          "port": self.port})

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _plan_one(self, request: ProvisionRequest) -> ProvisionResult:
        """The default computation: one batch-of-one against the store."""
        report = provision_batch_report([request], store=self.store, jobs=1)
        return report.results[0]

    async def _answer(self, request: ProvisionRequest) -> ProvisionResult:
        """Resolve one request through the coalescer and worker pool."""
        try:
            key = request.signature()
        except (ValueError, TypeError) as exc:
            # Domain-invalid parameters: a per-request error result,
            # exactly like a bad `repro provision` line.
            return ProvisionResult(request, None, error=str(exc))
        loop = asyncio.get_running_loop()

        async def compute() -> ProvisionResult:
            self._computed.inc()
            with span("serve.pool"):
                # copy_context(): contextvars do not cross the executor
                # hop by themselves; the snapshot carries the trace
                # context (and the serve.pool span) into the planner
                # thread, so store lookups and runtime task spans land
                # in the right tree.
                ctx = contextvars.copy_context()
                return await loop.run_in_executor(
                    self._executor, ctx.run, self._plan_fn, request)

        result = await self._coalescer.run(key, compute)
        # Joined waiters echo their own request document (identical
        # signature, possibly different spelling of max_duty).
        if result.request is not request:
            result = dc_replace(result, request=request)
        return result

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        started = perf_counter()
        endpoint, status, body = "?", 0, b""
        content_type = "application/json"
        info: dict[str, Any] = {}  # filled by _admit: trace_id
        try:
            try:
                parsed = await asyncio.wait_for(
                    self._read_request(reader), timeout=_READ_TIMEOUT_S)
            except asyncio.TimeoutError:
                parsed = None  # slow client: hang up without a response
            if parsed is not None:
                method, path, query, raw = parsed
                endpoint = path
                status, body, content_type = await self._route(
                    method, path, query, raw, info)
        except protocol.ProtocolError as exc:
            status, body = exc.status, _encode(exc.to_doc())
        except Exception:  # noqa: BLE001 - last-ditch 500, never a crash
            _log.exception("serve_internal_error")
            status, body = 500, _encode(protocol.error_doc(
                protocol.ERR_INTERNAL, "internal server error"))
        try:
            if status:
                # Count before the flush: a client that has its response
                # in hand must find its own request in /metrics already.
                self._requests.labels(endpoint=endpoint,
                                      code=str(status)).inc()
                await self._write_response(writer, status, body, content_type)
            else:
                writer.close()
        except (ConnectionError, OSError):
            pass  # client went away; nothing to tell it
        if status:
            self._latency.labels(endpoint=endpoint).observe(
                perf_counter() - started, trace_id=info.get("trace_id"))

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> tuple[str, str, str, bytes] | None:
        request_line = await reader.readline()
        if not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise protocol.ProtocolError(protocol.ERR_BAD_REQUEST,
                                         "malformed HTTP request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise protocol.ProtocolError(protocol.ERR_BAD_REQUEST,
                                         "invalid Content-Length header")
        if length < 0:
            raise protocol.ProtocolError(protocol.ERR_BAD_REQUEST,
                                         "invalid Content-Length header")
        if length > self.config.max_body_bytes:
            raise protocol.ProtocolError(
                protocol.ERR_PAYLOAD_TOO_LARGE,
                f"body of {length} bytes exceeds the limit of "
                f"{self.config.max_body_bytes}")
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return method, path, query, body

    async def _write_response(self, writer: asyncio.StreamWriter,
                              status: int, body: bytes,
                              content_type: str) -> None:
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        writer.close()

    # ------------------------------------------------------------------
    # routing and endpoints
    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str, query: str, raw: bytes,
                     info: dict[str, Any]) -> tuple[int, bytes, str]:
        if path == "/healthz":
            _require(method, "GET")
            return 200, _encode(protocol.ok_doc(
                status="draining" if self._draining else "serving",
                inflight=self._active,
                max_inflight=self.config.max_inflight)), "application/json"
        if path == "/metrics":
            _require(method, "GET")
            return (200, self.registry.to_prometheus().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8")
        if path == "/metrics.json":
            _require(method, "GET")
            return 200, self.registry.to_json().encode("utf-8"), \
                "application/json"
        if path == "/metrics/history":
            _require(method, "GET")
            doc = self._history.to_doc(
                interval_s=self.config.history_interval_s)
            return 200, _encode(doc), "application/json"
        if path == "/profilez":
            _require(method, "GET")
            return await self._profilez(query)
        if path == "/slo":
            _require(method, "GET")
            snapshot = self.registry.snapshot()
            self._burn.sample(snapshot)
            report = _slo.evaluate(self._objectives, snapshot,
                                   self._burn.burn_rates())
            return 200, _encode(protocol.ok_doc(slo=report)), \
                "application/json"
        if path == "/debugz":
            _require(method, "GET")
            return 200, _encode(protocol.ok_doc(
                capacity=self.config.flight_capacity,
                traces=self._recent_traces())), "application/json"
        if path in ("/provision", "/plan"):
            _require(method, "POST")
            return await self._admit(path, raw, info)
        raise protocol.ProtocolError(protocol.ERR_NOT_FOUND,
                                     f"no such endpoint: {path}")

    async def _profilez(self, query: str) -> tuple[int, bytes, str]:
        """``GET /profilez?seconds=N&hz=H``: sample the live process.

        Runs a :class:`~repro.obs.profile.SamplingProfiler` for the
        requested window while the event loop keeps serving (the sampler
        is its own thread; this coroutine just awaits), then answers
        with the collapsed-stack text.  Sees *every* thread — the event
        loop and the ``repro-serve-plan`` worker pool — so a profile
        taken under load shows exactly where planner time goes.  Ops
        endpoint: bypasses admission, usable while saturated.
        """
        params = parse_qs(query, keep_blank_values=False)

        def scalar(name: str, default: float, cast) -> Any:
            values = params.get(name)
            if not values:
                return default
            try:
                return cast(values[-1])
            except (TypeError, ValueError):
                raise protocol.ProtocolError(
                    protocol.ERR_BAD_REQUEST,
                    f"invalid {name!r} query parameter: {values[-1]!r}")

        seconds = scalar("seconds", 1.0, float)
        hz = scalar("hz", _profile.DEFAULT_HZ, int)
        if not 0.0 < seconds <= self.config.profilez_max_seconds:
            raise protocol.ProtocolError(
                protocol.ERR_BAD_REQUEST,
                f"seconds must be in (0, {self.config.profilez_max_seconds:g}]"
                f", got {seconds:g}")
        try:
            profiler = _profile.SamplingProfiler(hz=hz)
        except (TypeError, ValueError) as exc:
            raise protocol.ProtocolError(protocol.ERR_BAD_REQUEST, str(exc))
        profiler.start()
        try:
            await asyncio.sleep(seconds)
        finally:
            prof = profiler.stop()
        _log.info("profilez", extra={"seconds": seconds, "hz": hz,
                                     "samples": prof.samples})
        return (200, prof.collapsed().encode("utf-8"),
                "text/plain; charset=utf-8")

    def _recent_traces(self) -> list[list[dict[str, Any]]]:
        """The ``/debugz`` view: the newest ``flight_capacity`` server
        traces still in the tracer's ring.

        A server trace holds a ``serve.request`` or ``serve.refused``
        span; traces come newest-finished first, each as its spans in
        start order.
        """
        spans = default_tracer().spans
        newest: dict[str, list[dict[str, Any]]] = {}
        for record in reversed(spans):
            if len(newest) == self.config.flight_capacity:
                break
            if record.name in ("serve.request", "serve.refused"):
                newest.setdefault(record.trace_id, [])
        for record in spans:
            if record.trace_id in newest:
                newest[record.trace_id].append(record.to_dict())
        return [sorted(docs, key=lambda doc: doc["start_s"])
                for docs in newest.values()]

    def _retry_after_hint(self) -> float:
        """Backoff hint (seconds) for refused requests, from queue depth.

        A small floor plus a linear term per request queued beyond the
        worker pool, capped at 5s — deterministic in the current load, so
        a deeper queue tells clients to stay away longer.
        """
        queued = max(0, self._active - self.config.jobs)
        return round(min(5.0, 0.05 + 0.01 * queued), 4)

    async def _admit(self, path: str, raw: bytes,
                     info: dict[str, Any]) -> tuple[int, bytes, str]:
        """Admission control around the two provisioning endpoints.

        Admitted requests run inside a trace context (adopted from the
        body's ``trace_id``/``parent_id`` or freshly generated) under a
        ``serve.request`` span carrying the admission-time ``inflight``
        count and the answer's ``status``; a refusal leaves a zero-length
        ``serve.refused`` span instead.
        """
        if self._draining:
            self._refuse(path, protocol.ERR_DRAINING,
                         "server is draining for shutdown; retry elsewhere")
        if self._active >= self.config.max_inflight:
            self._refuse(path, protocol.ERR_OVERLOADED,
                         f"admission bound of {self.config.max_inflight} "
                         "in-flight requests reached; retry with backoff")
        self._active += 1
        self._inflight_gauge.set(self._active)
        try:
            doc = protocol.parse_body(raw)
            trace_id, parent_id = protocol.pop_trace(doc)
            with _context.trace_context(trace_id=trace_id,
                                        parent_id=parent_id) as tctx:
                info["trace_id"] = tctx.trace_id
                handler = (self._handle_provision if path == "/provision"
                           else self._handle_plan)
                with span("serve.request", endpoint=path,
                          inflight=self._active) as attrs:
                    try:
                        response = await asyncio.wait_for(
                            handler(doc),
                            timeout=self.config.request_deadline_s)
                    except asyncio.TimeoutError:
                        attrs["status"] = 504
                        raise protocol.ProtocolError(
                            protocol.ERR_DEADLINE_EXCEEDED,
                            "request exceeded its deadline of "
                            f"{self.config.request_deadline_s}s")
                    except Exception as exc:
                        typed = isinstance(exc, protocol.ProtocolError)
                        attrs["status"] = exc.status if typed else 500
                        raise
                    attrs["status"] = response[0]
            return response
        finally:
            self._active -= 1
            self._inflight_gauge.set(self._active)
            if self._draining and self._active == 0 \
                    and self._drained is not None:
                self._drained.set()

    def _refuse(self, path: str, code: str, message: str) -> None:
        """Refuse a request at admission: one ``serve.refused`` span, then
        the retryable error with a backoff hint."""
        default_tracer().record("serve.refused", 0.0, endpoint=path,
                                status=protocol.ERROR_STATUS[code],
                                code=code, inflight=self._active)
        raise protocol.ProtocolError(code, message,
                                     retry_after_s=self._retry_after_hint())

    async def _handle_provision(self, doc: dict[str, Any]
                                ) -> tuple[int, bytes, str]:
        requests, include = protocol.parse_provision_body(doc)
        with span("serve.provision", requests=len(requests)):
            results = await asyncio.gather(
                *(self._answer(req) for req in requests))
        docs = [r.to_dict(include_schedule=include) for r in results]
        return 200, _encode(protocol.ok_doc(
            results=docs, trace_id=_context.current_trace_id())), \
            "application/json"

    async def _handle_plan(self, doc: dict[str, Any]
                           ) -> tuple[int, bytes, str]:
        request, include = protocol.parse_plan_body(doc)
        with span("serve.plan", n=request.n, d=request.d):
            result = await self._answer(request)
        return 200, _encode(protocol.ok_doc(
            result=result.to_dict(include_schedule=include),
            trace_id=_context.current_trace_id())), \
            "application/json"


def _require(method: str, expected: str) -> None:
    if method != expected:
        raise protocol.ProtocolError(
            protocol.ERR_METHOD_NOT_ALLOWED,
            f"endpoint accepts {expected}, not {method}")


def _encode(doc: dict[str, Any]) -> bytes:
    return (json.dumps(doc) + "\n").encode("utf-8")


class BackgroundServer:
    """Run a :class:`ScheduleServer` on a daemon thread (tests, benches).

    Context manager: entering starts an event loop on a fresh thread,
    binds the server and blocks until it is accepting; exiting drains it
    and joins the thread.  ``host``/``port``/``server``/``loop`` are
    available inside the block::

        with BackgroundServer(ServeConfig(port=0)) as bs:
            ServeClient(bs.host, bs.port).health()
    """

    def __init__(self, config: ServeConfig | None = None,
                 **server_kwargs: Any) -> None:
        """*config* and *server_kwargs* pass to :class:`ScheduleServer`."""
        self._config = config
        self._kwargs = server_kwargs
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(target=self._main, daemon=True,
                                        name="repro-serve-bg")
        self.server: ScheduleServer | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.host = ""
        self.port = 0

    def __enter__(self) -> "BackgroundServer":
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("background server failed to start in time")
        if self._failure is not None:
            raise RuntimeError("background server failed to start") \
                from self._failure
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the server and join its thread (idempotent)."""
        if self.loop is not None and self.server is not None \
                and self._thread.is_alive():
            self.loop.call_soon_threadsafe(self.server.begin_drain)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("background server failed to drain in time")

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 - surfaced in __enter__
            self._failure = exc
            self._ready.set()

    async def _amain(self) -> None:
        self.server = ScheduleServer(self._config, **self._kwargs)
        self.loop = asyncio.get_running_loop()
        self.host, self.port = await self.server.start()
        self._ready.set()
        await self.server.wait_closed()
