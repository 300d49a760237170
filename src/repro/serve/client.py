"""Synchronous client for the schedule server, with seeded retry/backoff.

The counterpart of :mod:`repro.serve.server`, built on stdlib
``http.client`` only.  Used by ``repro call``, the acceptance tests and
the loopback load benchmark.

Retry policy: connection-level failures (refused, reset, timed out
sockets) and responses carrying a code in
:data:`repro.serve.protocol.RETRYABLE_CODES` (``overloaded``,
``draining``) are retried by :meth:`repro.faults.RetryPolicy.run` — the
same seeded backoff the runtime and the supervisor wait by, so two
clients with the same seed back off identically and a load test's retry
storm is byte-reproducible.  A response's
``retry_after_s`` hint (capped at *backoff_cap*) replaces the seeded
backoff for that retry, and *retry_budget_s* bounds the whole storm in
wall-clock terms.  Anything else (``400``, ``404``, ``504``...) is final
at once: retrying a request the server *rejected* cannot help.

Trace correlation (generate-or-forward): every ``POST`` body gains a
``trace_id`` — the active :func:`repro.obs.context.trace_context` when
one is in flight, a freshly minted id otherwise — plus the caller's
span id as ``parent_id``, so the server's spans nest under the client's
``client.call`` span.  The id is attached **once per logical call** and
reused verbatim across every retry, which is what makes a
retried-then-succeeded request one trace instead of several.
"""

from __future__ import annotations

import http.client
import json
from functools import partial
from typing import Any, Sequence

from repro._validation import check_int
from repro.faults import RetryPolicy
from repro.obs import context as _context
from repro.obs.tracing import span
from repro.serve import protocol
from repro.service.api import ProvisionRequest, ProvisionResult

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """A request that failed after every retry.

    Attributes
    ----------
    status:
        HTTP status of the final response, or 0 when no response was
        ever received (connection-level failure).
    code:
        The protocol error code of the final response (see
        :mod:`repro.serve.protocol`), or ``"unavailable"`` when the
        server could not be reached at all.
    retry_after_s:
        The server's backoff hint from the final response, or ``None``
        when it carried none.
    """

    def __init__(self, status: int, code: str, message: str, *,
                 retry_after_s: float | None = None):
        super().__init__(f"{code}: {message}")
        self.status = status
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s


class ServeClient:
    """Talk to a running :class:`~repro.serve.server.ScheduleServer`.

    Thread-compatible: every call opens its own connection, so one
    client instance may be shared across load-generator threads.

    Attributes
    ----------
    policy:
        The :class:`~repro.faults.RetryPolicy` every request retries by.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8177, *,
                 timeout: float = 60.0, retries: int = 3,
                 backoff_base: float = 0.05, backoff_cap: float = 2.0,
                 retry_budget_s: float | None = None,
                 seed: int = 0) -> None:
        """Configure the endpoint and its retry policy.

        *retries* counts extra attempts beyond the first; *backoff_base*,
        *backoff_cap*, *retry_budget_s* (wall-clock seconds the retries
        of one request may spend; ``None`` is unbounded) and *seed* are
        the remaining :class:`~repro.faults.RetryPolicy` fields.
        """
        self.host = host
        self.port = check_int(port, "port", minimum=1)
        self.timeout = timeout
        self.policy = RetryPolicy(retries, backoff_base, backoff_cap,
                                  retry_budget_s, seed)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def request(self, method: str, path: str,
                body: dict[str, Any] | None = None) -> tuple[int, bytes, str]:
        """One HTTP exchange with retries; returns
        ``(status, body_bytes, content_type)`` of the final response.

        Raises :class:`ServeError` when the final outcome is a
        connection failure.  Error responses — including a retryable code
        that never cleared within *retries*/*retry_budget_s* — are
        returned, not raised; callers that want exceptions use
        :meth:`call`.
        """
        payload = None
        if body is not None:
            if "trace_id" not in body:
                body = dict(body)
                ctx = _context.current()
                if ctx is not None:
                    body["trace_id"] = ctx.trace_id
                    body.setdefault("parent_id", ctx.span_id)
                else:
                    body["trace_id"] = _context.new_trace_id()
            # Serialized once: every retry of this call reuses the same
            # trace_id, so a retried request stays one trace.
            payload = json.dumps(body).encode("utf-8")
        outcome = self.policy.run(
            path, partial(self._exchange, method, path, payload))
        if isinstance(outcome, ServeError):
            raise outcome
        return outcome

    def _exchange(self, method: str, path: str, payload: bytes | None,
                  attempt: int) -> tuple[Any, bool, float | None]:
        """One HTTP exchange, as an attempt of :meth:`RetryPolicy.run`.

        The outcome is ``(status, body_bytes, content_type)``, or a
        :class:`ServeError` when the server could not be reached; that
        and a retryable error code ask for a retry.
        """
        conn = http.client.HTTPConnection(self.host, self.port,
                                         timeout=self.timeout)
        try:
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
            if response.getheader("Content-Length") is None:
                # The server frames every response; a head without the
                # length was cut short, so its empty body is no answer.
                raise http.client.IncompleteRead(data)
            answer = (response.status, data,
                      response.getheader("Content-Type", ""))
        except (OSError, http.client.HTTPException) as exc:
            return ServeError(0, "unavailable",
                              f"{self.host}:{self.port} unreachable after "
                              f"{attempt + 1} attempts: {exc}"), True, None
        finally:
            conn.close()
        if _error_code(answer[0], data) in protocol.RETRYABLE_CODES:
            return answer, True, _retry_hint(data)
        return answer, False, None

    def call(self, method: str, path: str,
             body: dict[str, Any] | None = None) -> dict[str, Any]:
        """A JSON exchange; returns the parsed response document.

        Raises :class:`ServeError` for any non-200 outcome, carrying the
        server's versioned error code (and its ``retry_after_s`` hint,
        when present).

        Runs inside a trace scope (adopted from any active context,
        opened fresh otherwise) and records a ``client.call`` span — the
        root of the request's hop tree on the client side.
        """
        with _context.trace_context():
            with span("client.call", method=method, path=path,
                      endpoint=f"{self.host}:{self.port}"):
                status, data, _content_type = self.request(method, path,
                                                           body)
        try:
            doc = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            doc = None
        if status == 200 and isinstance(doc, dict):
            return doc
        code = _error_code(status, data) or "unavailable"
        message = "unparseable response body"
        if isinstance(doc, dict):
            message = str(doc.get("error", {}).get("message", message))
        raise ServeError(status, code, message,
                         retry_after_s=protocol.retry_after_hint(doc))

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """``GET /healthz`` — serving/draining state and inflight count."""
        return self.call("GET", "/healthz")

    def metrics_snapshot(self) -> dict[str, Any]:
        """``GET /metrics.json`` — the ``repro-metrics`` snapshot."""
        return self.call("GET", "/metrics.json")

    def provision(self, requests: Sequence[ProvisionRequest
                                           | dict[str, Any]], *,
                  include_schedules: bool = True) -> list[dict[str, Any]]:
        """``POST /provision`` — returns the raw result documents.

        Result lines have exactly the shape ``repro provision`` writes;
        parse them with :meth:`ProvisionResult.from_dict` (requires
        ``include_schedules=True`` for successful results).
        """
        docs = [r.to_dict() if isinstance(r, ProvisionRequest) else r
                for r in requests]
        doc = self.call("POST", "/provision", {
            "requests": docs, "include_schedules": include_schedules})
        return doc["results"]

    def provision_results(self, requests: Sequence[ProvisionRequest
                                                   | dict[str, Any]]
                          ) -> list[ProvisionResult]:
        """:meth:`provision`, parsed back into :class:`ProvisionResult`."""
        return [ProvisionResult.from_dict(doc)
                for doc in self.provision(requests, include_schedules=True)]

    def plan(self, n: int, d: int, max_duty: float | str, *,
             balanced: bool = False,
             include_schedule: bool = True) -> dict[str, Any]:
        """``POST /plan`` — one request, one raw result document."""
        doc = self.call("POST", "/plan", {
            "n": n, "d": d, "max_duty": max_duty, "balanced": balanced,
            "include_schedule": include_schedule})
        return doc["result"]

    def metrics_text(self) -> str:
        """``GET /metrics`` — the Prometheus text exposition."""
        status, data, _ct = self.request("GET", "/metrics")
        if status != 200:
            raise ServeError(status, _error_code(status, data) or "internal",
                             "metrics endpoint failed")
        return data.decode("utf-8")

    def slo(self) -> dict[str, Any]:
        """``GET /slo`` — objectives, compliance and burn rates."""
        return self.call("GET", "/slo")

    def debugz(self) -> dict[str, Any]:
        """``GET /debugz`` — the spans of the server's newest traces."""
        return self.call("GET", "/debugz")

    def metrics_history(self) -> dict[str, Any]:
        """``GET /metrics/history`` — the ``repro-metrics-history`` ring."""
        return self.call("GET", "/metrics/history")

    def profilez(self, seconds: float = 1.0, *,
                 hz: int | None = None) -> str:
        """``GET /profilez`` — collapsed-stack profile of the live server.

        Blocks for *seconds* (plus transport time); raise the client
        *timeout* accordingly for long windows.
        """
        path = f"/profilez?seconds={seconds:g}"
        if hz is not None:
            path += f"&hz={hz}"
        status, data, _ct = self.request("GET", path)
        if status != 200:
            raise ServeError(status, _error_code(status, data) or "internal",
                             "profilez endpoint failed")
        return data.decode("utf-8")


def _retry_hint(data: bytes) -> float | None:
    """The ``retry_after_s`` hint of a raw response body, if any."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except Exception:  # noqa: BLE001 - any malformed body: no hint
        return None
    return protocol.retry_after_hint(doc)


def _error_code(status: int, data: bytes) -> str | None:
    """The protocol error code of a response, or None for non-errors."""
    if status == 200:
        return None
    try:
        doc = json.loads(data.decode("utf-8"))
        code = doc["error"]["code"]
    except Exception:  # noqa: BLE001 - any malformed body: no code
        return None
    return code if isinstance(code, str) else None
