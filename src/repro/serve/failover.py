"""Client-side failover: endpoint spreading, circuit breakers, retry budget.

One :class:`~repro.serve.client.ServeClient` talks to one server; a fleet
needs a client that survives *servers*.  :class:`FailoverClient` spreads
requests over several endpoints round-robin and wraps each in a
:class:`CircuitBreaker`:

* **closed** — requests flow; consecutive retryable failures count up;
* **open** — the endpoint is skipped entirely until a seeded reset
  timeout elapses (no connect attempts, no socket timeouts burned on a
  known-dead host);
* **half-open** — exactly one probe request is let through; success
  closes the breaker, failure re-opens it with a fresh seeded timeout.

The reset timeout is a :class:`repro.faults.RetryPolicy` delay with
``cap == base``, keyed on ``(endpoint, open_count)`` — two clients with
the same seed probe at identical offsets, so a chaos run's failover
behaviour is reproducible, yet a real fleet's probes do not stampede.

Retries against *different* endpoints replace the single-endpoint retry
ladder: each inner client runs with ``retries=0`` and this layer's
:meth:`~repro.faults.RetryPolicy.run` owns the policy — seeded
exponential backoff between attempts, the server's ``retry_after_s`` hint
when one was offered, and a total *retry_budget_s* wall-clock cap so a
retry storm cannot outlive its usefulness.  Every outcome lands in the
metrics registry (``repro_failover_*`` series), so endpoint health is
visible in the same snapshot as everything else.

Failure contract, identical to :class:`ServeClient`: every call either
returns a parsed response or raises a typed
:class:`~repro.serve.client.ServeError` — never a bare socket error, and
never an unbounded hang.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable

from repro._validation import check_int
from repro.faults import FaultPlan, RetryPolicy
from repro.obs import context as _context
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.tracing import span
from repro.serve.client import ServeClient, ServeEndpoints, ServeError

__all__ = ["BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_HALF_OPEN",
           "CircuitBreaker", "FailoverClient"]

_log = get_logger("serve.failover")

#: Breaker states (the values the metrics gauge and tests see).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: Gauge encoding of each breaker state.
_STATE_LEVEL = {BREAKER_CLOSED: 0.0, BREAKER_HALF_OPEN: 0.5,
                BREAKER_OPEN: 1.0}


class CircuitBreaker:
    """Per-endpoint failure gate: closed / open / half-open.

    Pure state machine over an injectable *clock* (tests pin time); the
    only nondeterminism in a real run is the wall clock itself — the
    reset timeout is ``policy.delay(f"breaker:{endpoint}", open_count)``,
    seeded by *plan*.
    """

    def __init__(self, endpoint: str, *, failure_threshold: int = 3,
                 reset_timeout_s: float = 1.0,
                 plan: FaultPlan | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 on_transition: Callable[[str, str], None] | None = None
                 ) -> None:
        """Gate *endpoint*; open after *failure_threshold* consecutive
        retryable failures, probe again after a seeded multiple of
        *reset_timeout_s*.  *on_transition(endpoint, new_state)* fires on
        every state change (metrics hook)."""
        self.endpoint = endpoint
        self.failure_threshold = check_int(
            failure_threshold, "failure_threshold", minimum=1)
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be positive")
        self.reset_timeout_s = reset_timeout_s
        self.policy = RetryPolicy(
            base=reset_timeout_s, cap=reset_timeout_s,
            seed=plan.seed if plan is not None else 0)
        self._clock = clock
        self._on_transition = on_transition
        self._state = BREAKER_CLOSED
        self._failures = 0
        self._opens = 0
        self._open_until = 0.0

    @property
    def state(self) -> str:
        """The current state (without side effects)."""
        return self._state

    @property
    def opens(self) -> int:
        """How many times this breaker has opened."""
        return self._opens

    def seconds_until_probe(self) -> float:
        """Seconds until an open breaker admits its probe (0 if not open)."""
        if self._state != BREAKER_OPEN:
            return 0.0
        return max(0.0, self._open_until - self._clock())

    def allow(self) -> bool:
        """Whether a request may use this endpoint right now.

        An open breaker whose reset timeout has elapsed transitions to
        half-open and admits exactly one probe; the probe's
        :meth:`record_success` / :meth:`record_failure` decides what
        happens next.  A half-open breaker with its probe still in
        flight admits nothing.
        """
        if self._state == BREAKER_CLOSED:
            return True
        if self._state == BREAKER_OPEN \
                and self._clock() >= self._open_until:
            self._transition(BREAKER_HALF_OPEN)
            return True
        return False

    def record_success(self) -> None:
        """The endpoint answered: close the breaker, forget failures."""
        self._failures = 0
        if self._state != BREAKER_CLOSED:
            self._transition(BREAKER_CLOSED)

    def record_failure(self) -> None:
        """A retryable failure: count it; trip or re-open as due."""
        self._failures += 1
        if self._state == BREAKER_HALF_OPEN \
                or (self._state == BREAKER_CLOSED
                    and self._failures >= self.failure_threshold):
            self._opens += 1
            self._open_until = self._clock() + self.policy.delay(
                f"breaker:{self.endpoint}", self._opens)
            self._transition(BREAKER_OPEN)

    def _transition(self, state: str) -> None:
        self._state = state
        _log.debug("breaker_transition", extra={
            "endpoint": self.endpoint, "state": state})
        if self._on_transition is not None:
            self._on_transition(self.endpoint, state)


def _parse_endpoint(spec: Any) -> tuple[str, int]:
    """``"host:port"`` or ``(host, port)`` -> a concrete address pair."""
    if isinstance(spec, str):
        host, sep, port = spec.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"endpoint {spec!r} must look like 'host:port'")
        return host, check_int(int(port), "port", minimum=1)
    host, port = spec
    return str(host), check_int(port, "port", minimum=1)


class _Endpoint:
    """One endpoint's client + breaker + bound metric series."""

    __slots__ = ("name", "client", "breaker", "ok", "failed", "rejected")

    def __init__(self, name: str, client: ServeClient,
                 breaker: CircuitBreaker, requests) -> None:
        self.name = name
        self.client = client
        self.breaker = breaker
        self.ok = requests.labels(endpoint=name, outcome="ok")
        self.failed = requests.labels(endpoint=name, outcome="failed")
        self.rejected = requests.labels(endpoint=name, outcome="rejected")


class FailoverClient(ServeEndpoints):
    """Spread requests over endpoints; survive the death of any of them.

    *endpoints* is a non-empty sequence of ``"host:port"`` strings or
    ``(host, port)`` pairs.  *retries* counts extra attempts beyond the
    first, each against the next healthy endpoint in rotation.  The
    retry knobs of the single-endpoint client (*backoff_base*,
    *backoff_cap*, *retry_budget_s*, *seed*) form this layer's
    :attr:`policy`; the inner per-endpoint clients run single-shot with
    *timeout*.
    """

    def __init__(self, endpoints: Iterable[Any], *, timeout: float = 60.0,
                 retries: int = 6, backoff_base: float = 0.05,
                 backoff_cap: float = 2.0,
                 retry_budget_s: float | None = None, seed: int = 0,
                 failure_threshold: int = 3,
                 breaker_reset_s: float = 1.0,
                 registry: MetricsRegistry | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        """Build the rotation; *clock*/*sleep* are injectable for tests."""
        specs = [_parse_endpoint(spec) for spec in endpoints]
        if not specs:
            raise ValueError("FailoverClient needs at least one endpoint")
        self.policy = RetryPolicy(retries, backoff_base, backoff_cap,
                                  retry_budget_s, seed)
        self.registry = registry if registry is not None \
            else default_registry()
        self._clock = clock
        self._sleep = sleep
        self._calls = 0

        requests = self.registry.counter(
            "repro_failover_requests_total",
            "Failover attempts, by endpoint and outcome "
            "(ok / failed / rejected).")
        self._transitions = self.registry.counter(
            "repro_failover_breaker_transitions_total",
            "Circuit-breaker state changes, by endpoint and new state.")
        self._state_gauge = self.registry.gauge(
            "repro_failover_breaker_open",
            "Breaker state per endpoint: 0 closed, 0.5 half-open, 1 open.")
        self._retries_total = self.registry.counter(
            "repro_failover_retries_total",
            "Retry sleeps taken by the failover layer.").labels()
        self._exhausted = self.registry.counter(
            "repro_failover_exhausted_total",
            "Calls that failed after every retry (or budget).").labels()

        plan = FaultPlan(seed=seed)
        self._endpoints: list[_Endpoint] = []
        for host, port in specs:
            name = f"{host}:{port}"
            client = ServeClient(host, port, timeout=timeout, retries=0)
            breaker = CircuitBreaker(
                name, failure_threshold=failure_threshold,
                reset_timeout_s=breaker_reset_s, plan=plan,
                clock=clock, on_transition=self._record_transition)
            self._state_gauge.labels(endpoint=name).set(0.0)
            self._endpoints.append(_Endpoint(name, client, breaker,
                                             requests))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def endpoints(self) -> list[str]:
        """Endpoint names, in rotation order."""
        return [ep.name for ep in self._endpoints]

    def breaker(self, endpoint: str) -> CircuitBreaker:
        """The breaker gating *endpoint* (KeyError if unknown)."""
        for ep in self._endpoints:
            if ep.name == endpoint:
                return ep.breaker
        raise KeyError(endpoint)

    def breaker_states(self) -> dict[str, str]:
        """Endpoint -> current breaker state."""
        return {ep.name: ep.breaker.state for ep in self._endpoints}

    # ------------------------------------------------------------------
    # the failover loop
    # ------------------------------------------------------------------
    def call(self, method: str, path: str,
             body: dict[str, Any] | None = None) -> dict[str, Any]:
        """A JSON exchange against the first healthy endpoint to answer.

        Raises :class:`ServeError` when the request is refused
        non-retryably (immediately, from the answering endpoint) or when
        every attempt/budget is exhausted (the *last* failure, so the
        caller sees a real code, not a synthetic one).

        The whole rotation runs inside **one** trace scope: however many
        endpoints a request visits before succeeding, every attempt
        carries the same ``trace_id`` (the inner clients forward the
        active context instead of minting their own).
        """
        with _context.trace_context():
            with span("client.failover", method=method, path=path):
                return self._call_rotation(method, path, body)

    def _call_rotation(self, method: str, path: str,
                       body: dict[str, Any] | None) -> dict[str, Any]:
        start = self._calls
        self._calls += 1
        last_error = ServeError(0, "unavailable",
                                "every endpoint's circuit breaker is open")

        def attempt(n: int) -> tuple[Any, bool, float | None]:
            nonlocal last_error
            ep = self._select(start + n)
            if ep is None:
                # Every breaker is open: the only useful wait is until
                # the soonest one half-opens.
                return last_error, True, min(
                    e.breaker.seconds_until_probe() for e in self._endpoints)
            try:
                doc = ep.client.call(method, path, body)
            except ServeError as exc:
                if not exc.retryable:
                    # The endpoint is alive and answered with a verdict;
                    # that is endpoint *health*, even though the
                    # caller's request failed.
                    ep.breaker.record_success()
                    ep.rejected.inc()
                    raise
                ep.breaker.record_failure()
                ep.failed.inc()
                last_error = exc
                return exc, True, exc.retry_after_s
            ep.breaker.record_success()
            ep.ok.inc()
            return doc, False, None

        outcome = self.policy.run(path, attempt, clock=self._clock,
                                  sleep=self._retry_sleep)
        if isinstance(outcome, ServeError):
            self._exhausted.inc()
            raise outcome
        return outcome

    def _retry_sleep(self, delay: float) -> None:
        self._retries_total.inc()
        self._sleep(delay)

    def _select(self, slot: int) -> _Endpoint | None:
        """The first endpoint in rotation whose breaker admits *slot*."""
        n = len(self._endpoints)
        for offset in range(n):
            ep = self._endpoints[(slot + offset) % n]
            if ep.breaker.allow():
                return ep
        return None

    def _record_transition(self, endpoint: str, state: str) -> None:
        self._transitions.labels(endpoint=endpoint, state=state).inc()
        self._state_gauge.labels(endpoint=endpoint).set(
            _STATE_LEVEL[state])
