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

:class:`BackgroundProxy` runs a proxy on
:class:`~repro.serve.server.BackgroundServer`'s thread runner for
synchronous contexts (tests, benches, the chaos-smoke CI job).
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro._validation import check_int
from repro.faults import FaultPlan
from repro.obs import context as _context
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.serve.server import BackgroundServer

__all__ = ["ChaosProxy", "BackgroundProxy"]

_log = get_logger("serve.chaos")

_CHUNK = 65536
#: ``reset``/``truncate`` sever the upstream response below this byte
#: offset: inside the HTTP response head, so the injected damage is
#: always client-visible.
_CUT_WINDOW = 64


class ChaosProxy:
    """One fault-injecting TCP relay in front of an upstream server.

    Lifecycle is :class:`~repro.serve.server.ScheduleServer`'s:
    ``await start()`` binds the listener (port 0 for ephemeral),
    ``begin_drain()`` initiates shutdown, and ``await wait_closed()``
    then closes the listener and aborts every live relay.

    Attributes
    ----------
    fault_log:
        ``(connection_index, kind)`` per accepted connection, in accept
        order; *kind* is one of
        :data:`~repro.faults.PROXY_FAULT_KINDS` or ``"ok"``.  Two runs
        with the same plan seed and accept order log identical
        sequences.
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
        self._server: asyncio.base_events.Server | None = None
        self._closing: asyncio.Event | None = None
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
        self._closing = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        _log.info("chaos_proxy_started", extra={
            "host": self.host, "port": self.port,
            "upstream": f"{self.upstream_host}:{self.upstream_port}",
            "seed": self.plan.seed})
        return self.host, self.port

    def begin_drain(self) -> None:
        """Initiate shutdown (idempotent); :meth:`wait_closed` does it."""
        if self._closing is not None:
            self._closing.set()

    async def wait_closed(self) -> None:
        """Wait for :meth:`begin_drain`, then close the listener and relays."""
        if self._server is None or self._closing is None:
            return
        await self._closing.wait()
        self._server.close()
        # Relays first: from Python 3.12 the listener's wait_closed()
        # also waits for its live connections.
        for task in list(self._relays):
            task.cancel()
        if self._relays:
            await asyncio.gather(*self._relays, return_exceptions=True)
        await self._server.wait_closed()
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


class BackgroundProxy(BackgroundServer):
    """Run a :class:`ChaosProxy` on a daemon thread (tests, benches).

    :class:`~repro.serve.server.BackgroundServer`'s context manager,
    hosting a proxy (``server`` is the :class:`ChaosProxy`)::

        with BackgroundProxy("127.0.0.1", upstream_port,
                             plan=FaultPlan(seed=7,
                                            proxy_reset_rate=0.1)) as bp:
            ServeClient(bp.host, bp.port).health()
            print(bp.fault_log)
    """

    _THREAD_NAME = "repro-chaos-bg"

    def __init__(self, upstream_host: str, upstream_port: int,
                 **proxy_kwargs: Any) -> None:
        """Arguments pass through to :class:`ChaosProxy`."""
        super().__init__()
        self._upstream = (upstream_host, upstream_port)
        self._kwargs = proxy_kwargs

    def _create(self) -> ChaosProxy:
        return ChaosProxy(*self._upstream, **self._kwargs)

    @property
    def fault_log(self) -> list[tuple[int, str]]:
        """The proxy's per-connection fault log (accept order)."""
        assert self.server is not None
        return list(self.server.fault_log)
