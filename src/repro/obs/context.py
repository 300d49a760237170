"""Request-scoped trace context: correlation ids that follow the work.

A provision request crosses many hops — client retry loop, the
asyncio server, the coalescer, a thread pool, the planner, the schedule
store.  This module gives every hop the same three
coordinates, carried in a :class:`contextvars.ContextVar` so they follow
``await`` points and (via :func:`contextvars.copy_context`) executor
submissions without any function-signature plumbing:

* ``trace_id`` — one id for the whole end-to-end request; every span and
  log line it touches carries it;
* ``span_id`` — the id of the *current* operation;
* ``parent_id`` — the ``span_id`` of the enclosing operation (``None``
  at the root), which is what lets a flat JSONL dump reassemble into a
  tree.

Usage is one context manager::

    from repro.obs.context import trace_context

    with trace_context() as ctx:          # new trace (generated ids)
        ...
    with trace_context(trace_id=tid, parent_id=pid):
        ...                               # adopt an incoming trace

:mod:`repro.obs.tracing` calls :func:`enter_span`/:func:`exit_span`
around every span so nested spans form the parentage chain, and
:mod:`repro.obs.logging` stamps ``trace_id`` onto every log record
emitted while a context is active.

Ids are 16 lowercase hex characters from ``os.urandom``.  Tests that
need replayable traces wrap the code under test in
:func:`deterministic_ids`, which swaps the generator for a seeded
SHA-256 counter — same seed, same id sequence, no global state leaked
after the ``with`` block.
"""

from __future__ import annotations

import hashlib
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar, Token
from dataclasses import dataclass
from typing import Iterator

__all__ = ["TraceContext", "current", "current_trace_id", "trace_context",
           "new_trace_id", "new_span_id", "enter_span", "exit_span",
           "deterministic_ids"]

#: Length of every generated id, in hex characters (64 bits).
ID_HEX_LEN = 16


@dataclass(frozen=True)
class TraceContext:
    """The correlation coordinates of the current operation.

    Attributes
    ----------
    trace_id:
        Id shared by every operation of one end-to-end request.
    span_id:
        Id of the current operation.
    parent_id:
        ``span_id`` of the enclosing operation, or None at the root.
    """

    trace_id: str
    span_id: str
    parent_id: str | None

    def to_dict(self) -> dict[str, str | None]:
        """JSON-serializable form (e.g. for debug endpoints)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id}


_current: ContextVar[TraceContext | None] = ContextVar(
    "repro_trace_context", default=None)

# ---------------------------------------------------------------------------
# id generation
# ---------------------------------------------------------------------------
_det_lock = threading.Lock()
_det_state: list[object] | None = None  # [seed, counter] when deterministic


def _generate_id() -> str:
    """One fresh id: random normally, seeded-counter hash under
    :func:`deterministic_ids`."""
    global _det_state
    if _det_state is not None:
        with _det_lock:
            if _det_state is not None:  # re-check under the lock
                seed, counter = _det_state
                _det_state = [seed, int(counter) + 1]
                material = f"{seed}:{counter}".encode()
                return hashlib.sha256(material).hexdigest()[:ID_HEX_LEN]
    return os.urandom(ID_HEX_LEN // 2).hex()


def new_trace_id() -> str:
    """A fresh trace id (16 hex chars)."""
    return _generate_id()


def new_span_id() -> str:
    """A fresh span id (16 hex chars)."""
    return _generate_id()


@contextmanager
def deterministic_ids(seed: int | str = 0) -> Iterator[None]:
    """Make id generation a pure function of *seed* and call order.

    For replayable tests only — ids from different processes (or
    different seeds) remain distinct, but two runs of the same seeded
    code produce identical trace/span ids.  Restores random generation
    on exit.
    """
    global _det_state
    with _det_lock:
        previous, _det_state = _det_state, [seed, 0]
    try:
        yield
    finally:
        with _det_lock:
            _det_state = previous


# ---------------------------------------------------------------------------
# context access
# ---------------------------------------------------------------------------
def current() -> TraceContext | None:
    """The active :class:`TraceContext`, or None outside any trace."""
    return _current.get()


def current_trace_id() -> str | None:
    """The active trace id, or None outside any trace."""
    ctx = _current.get()
    return ctx.trace_id if ctx is not None else None


@contextmanager
def trace_context(trace_id: str | None = None,
                  parent_id: str | None = None) -> Iterator[TraceContext]:
    """Enter a trace scope: adopt *trace_id* or start a new trace.

    With *parent_id* (the caller's span id forwarded over the wire) the
    scope is **positioned at the caller's span** — ``span_id`` is set to
    *parent_id* — so the first span opened inside parents directly under
    the remote caller and the reassembled tree crosses the process
    boundary without an unrecorded intermediate node.  When called
    **inside** an active context with no arguments, the scope is a pure
    passthrough of that context (spans keep nesting under the active
    span).  Otherwise a new trace starts with a fresh root position.
    Restores the previous context on exit — exception-safe.
    """
    active = _current.get()
    if trace_id is None and parent_id is None and active is not None:
        yield active  # already tracing: nothing to reposition
        return
    if trace_id is None:
        trace_id = active.trace_id if active is not None else new_trace_id()
    span_id = parent_id if parent_id is not None else new_span_id()
    ctx = TraceContext(trace_id, span_id, None)
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


def enter_span() -> tuple[TraceContext, Token]:
    """Open a child span scope; returns ``(context, token)``.

    Non-context-manager form for instrumentation that brackets entry and
    exit itself (:meth:`repro.obs.tracing.Tracer.span`).  Outside any
    trace this *starts* one, so every span always has a trace id.  The
    caller must pass *token* to :func:`exit_span` in a ``finally``.
    """
    active = _current.get()
    if active is None:
        ctx = TraceContext(new_trace_id(), new_span_id(), None)
    else:
        ctx = TraceContext(active.trace_id, new_span_id(), active.span_id)
    return ctx, _current.set(ctx)


def exit_span(token: Token) -> None:
    """Close the span scope opened by the matching :func:`enter_span`."""
    _current.reset(token)
