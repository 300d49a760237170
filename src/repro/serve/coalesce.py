"""In-flight request coalescing: one computation, many waiters.

A schedule server's natural workload is *hot-keyed*: every node of a
deployed class ``N_n^D`` asks for the same ``(n, D, duty)`` plan.  The
:class:`~repro.service.store.ScheduleStore` already collapses repeats
*across* time; this module collapses them *within* it — concurrent
requests sharing a :meth:`~repro.service.api.ProvisionRequest.signature`
await one single planner evaluation, whose result fans out to every
waiter the moment it lands.

Semantics, precisely:

* the first request for a key becomes the **leader**: its computation is
  started as an independent task;
* every request arriving while that task is in flight **joins** it —
  zero additional planner work;
* the computation is *shielded* from any individual waiter's
  cancellation (a client hanging up, a per-request deadline firing), so
  one impatient waiter can never poison the others;
* failures propagate to every waiter of that flight but are **never
  cached** — the next request for the key leads a fresh computation.

The two counters (:attr:`Coalescer.led` / :attr:`Coalescer.joined`) are
exported as ``repro_serve_coalesce_total{result=...}``; the bench and
the acceptance tests read the hit rate straight from them.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Hashable

from repro.obs import context as _context
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import default_tracer, span

__all__ = ["Coalescer"]

_log = get_logger("serve.coalesce")


class Coalescer:
    """Deduplicate concurrent computations by key (single-flight)."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        """Create a coalescer; counters live in *registry* when given."""
        self._inflight: dict[Hashable, asyncio.Task] = {}
        self._flight_trace: dict[Hashable, str | None] = {}
        registry = registry if registry is not None else MetricsRegistry()
        counter = registry.counter(
            "repro_serve_coalesce_total",
            "Coalescer outcomes: led = computations started, "
            "joined = requests that shared an in-flight computation.")
        self._led = counter.labels(result="led")
        self._joined = counter.labels(result="joined")

    @property
    def led(self) -> int:
        """Computations actually started (flight leaders)."""
        return int(self._led.value)

    @property
    def joined(self) -> int:
        """Requests answered by someone else's in-flight computation."""
        return int(self._joined.value)

    @property
    def hit_rate(self) -> float:
        """Fraction of requests that joined instead of computing."""
        total = self.led + self.joined
        return self.joined / total if total else 0.0

    def inflight(self) -> int:
        """Number of distinct computations currently in flight."""
        return len(self._inflight)

    async def run(self, key: Hashable,
                  compute: Callable[[], Awaitable[Any]]) -> Any:
        """Await the (possibly shared) computation for *key*.

        *compute* is only invoked when no flight for *key* exists; its
        result (or exception) is delivered to every waiter of the
        flight.  Awaiting this method is cancellable per waiter — the
        shared computation itself is not.

        Trace correlation: the flight remembers its leader's
        ``trace_id``; a joining waiter records a zero-work
        ``serve.coalesce.join`` span whose ``leader_trace_id`` attribute
        names the trace that did the computing, so the N→1 dedup is
        visible from either side's trace tree.
        """
        task = self._inflight.get(key)
        if task is not None and not task.done():
            self._joined.inc()
            leader_trace_id = self._flight_trace.get(key)
            default_tracer().record("serve.coalesce.join", 0.0,
                                    leader_trace_id=leader_trace_id)
            _log.debug("coalesce_joined",
                       extra={"leader_trace_id": leader_trace_id})
        else:
            self._led.inc()
            task = asyncio.get_running_loop().create_task(
                self._lead(key, compute))
            self._inflight[key] = task
            self._flight_trace[key] = _context.current_trace_id()
        # shield(): cancelling one waiter must not cancel the flight the
        # other waiters (and the leader's bookkeeping) depend on.
        return await asyncio.shield(task)

    async def _lead(self, key: Hashable,
                    compute: Callable[[], Awaitable[Any]]) -> Any:
        try:
            with span("serve.coalesce.lead"):
                return await compute()
        finally:
            # Leave the flight map before waiters wake: a request racing
            # the fan-out either joins this finished task (done() guard
            # above) or leads a fresh one — failures are never cached.
            self._inflight.pop(key, None)
            self._flight_trace.pop(key, None)
