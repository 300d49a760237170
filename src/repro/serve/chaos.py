"""A deterministic fault-injecting TCP proxy for chaos-testing the serve tier.

The paper's schedules guarantee delivery whatever the topology does; the
serving stack should make the analogous promise about the *network*.
:class:`ChaosProxy` sits between a client and a
:class:`~repro.serve.server.ScheduleServer` and injects transport-level
faults — the failure modes a real deployment meets between two hosts:

==============  =====================================================
``refuse``      the connection is aborted on accept, before any bytes
                (connection refused / reset on connect)
``reset``       the upstream response is severed mid-stream with an
                abortive close (RST) after a seeded byte offset
``delay``       every byte of the exchange waits behind a seeded
                latency injection (slow network)
``truncate``    the upstream response is cut short after a seeded byte
                offset and closed *cleanly* — the nastier case, because
                the client sees a well-formed FIN on a half response
==============  =====================================================

Every decision is a pure :class:`~repro.faults.FaultPlan` draw keyed on
``(seed, connection_index)`` — no RNG state, no wall clock — so a chaos
run's fault sequence is byte-reproducible: the same seed and the same
accept order produce the identical :attr:`ChaosProxy.fault_log`, which is
exactly what the acceptance suite asserts.

The proxy is observability-first: ``repro_chaos_connections_total`` (by
injected fault) and ``repro_chaos_upstream_failures_total`` land in the
injected metrics registry, and the per-connection fault log names which
connection got what.

:class:`BackgroundProxy` mirrors :class:`~repro.serve.server.BackgroundServer`
for synchronous contexts (tests, benches, the chaos-smoke CI job).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any

from repro._validation import check_int
from repro.faults import FaultPlan
from repro.obs import context as _context
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, default_registry

__all__ = ["ChaosProxy", "BackgroundProxy"]

_log = get_logger("serve.chaos")

_CHUNK = 65536
#: ``reset``/``truncate`` sever the upstream response below this byte
#: offset: inside the HTTP response head, so the injected damage is
#: always client-visible.
_CUT_WINDOW = 64


class ChaosProxy:
    """One fault-injecting TCP relay in front of an upstream server.

    Lifecycle mirrors :class:`~repro.serve.server.ScheduleServer`:
    ``await start()`` binds the listener (port 0 for ephemeral), ``await
    close()`` aborts the listener and every live relay.

    Attributes
    ----------
    fault_log:
        ``(connection_index, kind)`` per accepted connection, in accept
        order; *kind* is one of
        :data:`~repro.faults.PROXY_FAULT_KINDS` or ``"ok"``.  Two runs
        with the same plan seed and accept order log identical
        sequences.
    fault_events:
        The richer record behind :attr:`fault_log`: one dict per
        accepted connection with ``connection``, ``kind`` and
        ``trace_id`` — the active
        :func:`repro.obs.context.current_trace_id` at accept time, so a
        chaos run embedded in a traced scope ties its injected faults
        back to the request under test (``None`` for a bare
        transport-level run, where the proxy cannot see inside the
        payload).
    """

    def __init__(self, upstream_host: str, upstream_port: int, *,
                 plan: FaultPlan | None = None, host: str = "127.0.0.1",
                 port: int = 0,
                 registry: MetricsRegistry | None = None) -> None:
        """Proxy ``host:port`` -> ``upstream_host:upstream_port``.

        *plan* supplies the seeded fault draws (default: a clean plan,
        pure pass-through).
        """
        self.upstream_host = upstream_host
        self.upstream_port = check_int(upstream_port, "upstream_port",
                                       minimum=1)
        self.plan = plan if plan is not None else FaultPlan()
        self.registry = registry if registry is not None \
            else default_registry()
        self.host = host
        self.port = port
        self.fault_log: list[tuple[int, str]] = []
        self.fault_events: list[dict[str, Any]] = []
        self._server: asyncio.base_events.Server | None = None
        self._connections = 0
        self._relays: set[asyncio.Task] = set()
        self._conn_counter = self.registry.counter(
            "repro_chaos_connections_total",
            "Connections accepted by the chaos proxy, by injected fault.")
        self._upstream_failures = self.registry.counter(
            "repro_chaos_upstream_failures_total",
            "Proxied connections dropped because the upstream was "
            "unreachable.").labels()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind the listener; returns the concrete ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("proxy already started")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        _log.info("chaos_proxy_started", extra={
            "host": self.host, "port": self.port,
            "upstream": f"{self.upstream_host}:{self.upstream_port}",
            "seed": self.plan.seed})
        return self.host, self.port

    async def close(self) -> None:
        """Stop accepting and abort every live relay (idempotent)."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        for task in list(self._relays):
            task.cancel()
        if self._relays:
            await asyncio.gather(*self._relays, return_exceptions=True)
        self._server = None
        _log.info("chaos_proxy_stopped", extra={"host": self.host,
                                                "port": self.port})

    @property
    def connections(self) -> int:
        """Connections accepted so far (== next connection index)."""
        return self._connections

    # ------------------------------------------------------------------
    # the relay
    # ------------------------------------------------------------------
    async def _handle(self, client_reader: asyncio.StreamReader,
                      client_writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._relays.add(task)
        try:
            await self._relay_connection(client_reader, client_writer)
        except asyncio.CancelledError:
            pass  # proxy closing: the abort below is the cleanup
        finally:
            if task is not None:
                self._relays.discard(task)
            if not client_writer.is_closing():
                _abort(client_writer)

    async def _relay_connection(self, client_reader: asyncio.StreamReader,
                                client_writer: asyncio.StreamWriter) -> None:
        index = self._connections
        self._connections += 1
        kind = self.plan.proxy_fault(index) or "ok"
        trace_id = _context.current_trace_id()
        self.fault_log.append((index, kind))
        self.fault_events.append({"connection": index, "kind": kind,
                                  "trace_id": trace_id})
        self._conn_counter.labels(fault=kind).inc()
        if kind != "ok":
            _log.debug("chaos_fault", extra={"connection": index,
                                             "kind": kind,
                                             "trace_id": trace_id})
        if kind == "refuse":
            return  # the finally-abort is the whole fault
        if kind == "delay":
            await asyncio.sleep(self.plan.proxy_delay(index))
        try:
            up_reader, up_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port)
        except OSError:
            self._upstream_failures.inc()
            return  # upstream down: the client sees an aborted connect
        cut = self.plan.proxy_cut(index, _CUT_WINDOW) \
            if kind in ("reset", "truncate") else None
        forward = asyncio.create_task(
            _pump(client_reader, up_writer, eof=True))
        try:
            await _pump(up_reader, client_writer, limit=cut)
            if kind == "reset":
                _abort(client_writer)
            else:
                # Clean close — for ``truncate`` that is the fault itself:
                # a well-formed FIN on a half response.
                try:
                    client_writer.close()
                    await client_writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        finally:
            forward.cancel()
            try:
                await forward
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            _abort(up_writer)


async def _pump(reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                *, limit: int | None = None, eof: bool = False) -> None:
    """Relay *reader* into *writer* until EOF or *limit* bytes are sent.

    With *eof*, a clean source EOF is propagated as ``write_eof`` so the
    upstream sees the end of the request while the response still flows
    back on the other half of the socket.
    """
    sent = 0
    try:
        while True:
            budget = _CHUNK if limit is None else min(_CHUNK, limit - sent)
            if budget <= 0:
                return
            chunk = await reader.read(budget)
            if not chunk:
                if eof and not writer.is_closing():
                    try:
                        writer.write_eof()
                    except (OSError, RuntimeError):
                        pass
                return
            sent += len(chunk)
            writer.write(chunk)
            await writer.drain()
    except (ConnectionError, OSError):
        return  # either side went away; the caller owns the cleanup


def _abort(writer: asyncio.StreamWriter) -> None:
    """Abortive close (RST where the platform allows), never raising."""
    try:
        writer.transport.abort()
    except (OSError, RuntimeError):  # pragma: no cover - already gone
        pass


class BackgroundProxy:
    """Run a :class:`ChaosProxy` on a daemon thread (tests, benches).

    Context manager, mirroring
    :class:`~repro.serve.server.BackgroundServer`::

        with BackgroundProxy("127.0.0.1", upstream_port,
                             plan=FaultPlan(seed=7,
                                            proxy_reset_rate=0.1)) as bp:
            ServeClient(bp.host, bp.port).health()
            print(bp.proxy.fault_log)
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 **proxy_kwargs: Any) -> None:
        """Arguments pass through to :class:`ChaosProxy`."""
        self._args = (upstream_host, upstream_port)
        self._kwargs = proxy_kwargs
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._failure: BaseException | None = None
        self._thread = threading.Thread(target=self._main, daemon=True,
                                        name="repro-chaos-bg")
        self.proxy: ChaosProxy | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.host = ""
        self.port = 0

    def __enter__(self) -> "BackgroundProxy":
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("background proxy failed to start in time")
        if self._failure is not None:
            raise RuntimeError("background proxy failed to start") \
                from self._failure
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def fault_log(self) -> list[tuple[int, str]]:
        """The proxy's per-connection fault log (accept order)."""
        assert self.proxy is not None
        return list(self.proxy.fault_log)

    @property
    def fault_events(self) -> list[dict[str, Any]]:
        """The proxy's trace-aware fault events (accept order)."""
        assert self.proxy is not None
        return list(self.proxy.fault_events)

    def stop(self, timeout: float = 30.0) -> None:
        """Close the proxy and join its thread (idempotent)."""
        if self.loop is not None and self._stop is not None \
                and self._thread.is_alive():
            self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("background proxy failed to stop in time")

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 - surfaced in __enter__
            self._failure = exc
            self._ready.set()

    async def _amain(self) -> None:
        self.proxy = ChaosProxy(*self._args, **self._kwargs)
        self.loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.host, self.port = await self.proxy.start()
        self._ready.set()
        await self._stop.wait()
        await self.proxy.close()
