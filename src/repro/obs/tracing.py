"""Span tracing: nestable timers over ``perf_counter`` with JSONL export.

Where did the time go?  Instrumented code brackets each stage with::

    from repro.obs.tracing import span

    with span("provision.evaluate", tasks=len(tasks)):
        ...

Spans nest (depth follows the context, like the trace ids, so it stays
right across asyncio tasks and worker threads), cost two
``perf_counter`` calls plus one append, and land in a bounded in-memory
:class:`Tracer` ring — old spans fall off the front, so tracing can stay
on in long-running processes; the schedule server's ``/debugz`` reads
its newest request traces straight from that ring.  A :class:`Tracer`
exports its spans to JSONL (:meth:`~Tracer.to_jsonl`) and aggregates
them into the per-name summary behind the CLI's ``--profile`` table
(:meth:`~Tracer.summary_table`).

Like the metrics registry, a process-global default tracer serves
un-threaded instrumentation and :func:`set_default_tracer` scopes it
(the CLI installs a fresh tracer per invocation).  A disabled tracer
(``Tracer(enabled=False)``) turns :meth:`~Tracer.span` into a bare
``yield`` — the off switch for overhead-critical runs.

Beside :func:`read_jsonl`, :func:`validate_span` and
:func:`span_graph_problems` check span dumps against the documented
schema and the correlation invariants trace reassembly depends on.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Iterable, Iterator

from repro._validation import check_int, is_a, jsonl_problems
from repro.obs import context as _context

__all__ = ["SpanRecord", "Tracer", "span", "default_tracer",
           "set_default_tracer", "read_jsonl", "validate_span",
           "span_graph_problems", "validate_jsonl", "assemble_traces",
           "render_trace_trees"]

#: Spans open around the current position.  A context variable, so each
#: asyncio task and each executor hop (``contextvars.copy_context``) sees
#: its own enclosing spans, never another thread's.
_open_spans: ContextVar[int] = ContextVar("repro_open_spans", default=0)


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    Attributes
    ----------
    name:
        The span's dotted stage name (``provision.evaluate``, ...).
    start_s:
        ``perf_counter`` timestamp at entry (monotonic, process-local —
        meaningful for ordering and deltas, not wall-clock).
    duration_s:
        Seconds between entry and exit.
    depth:
        Nesting depth at entry (0 = top level).
    attrs:
        The keyword attributes the instrumentation site attached.
    trace_id, span_id, parent_id:
        Correlation ids from :mod:`repro.obs.context` — ``parent_id``
        links this span under its enclosing span (or, at a process
        root, under the remote caller's span), which is what lets
        :func:`assemble_traces` rebuild the request tree from JSONL.
    pid:
        Recording process id — ``start_s`` values are only comparable
        within one pid (``perf_counter`` epochs differ per process).
    """

    name: str
    start_s: float
    duration_s: float
    depth: int
    attrs: dict[str, Any]
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None
    pid: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (one JSONL line)."""
        return {"name": self.name, "start_s": self.start_s,
                "duration_s": self.duration_s, "depth": self.depth,
                "attrs": self.attrs, "trace_id": self.trace_id,
                "span_id": self.span_id, "parent_id": self.parent_id,
                "pid": self.pid}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "SpanRecord":
        """Rebuild a record from its :meth:`to_dict` form (absent trace
        fields — pre-correlation trace files — become None)."""
        return cls(name=doc["name"], start_s=doc["start_s"],
                   duration_s=doc["duration_s"], depth=doc.get("depth", 0),
                   attrs=doc.get("attrs", {}),
                   trace_id=doc.get("trace_id"), span_id=doc.get("span_id"),
                   parent_id=doc.get("parent_id"), pid=doc.get("pid"))


class Tracer:
    """A bounded, thread-safe recorder of finished spans.

    Parameters
    ----------
    capacity:
        Maximum retained spans; beyond it the *oldest* spans are dropped
        (:attr:`dropped` counts them) so memory stays bounded.
    enabled:
        When False, :meth:`span` yields immediately and records nothing.
    """

    def __init__(self, capacity: int = 10_000, *, enabled: bool = True):
        self.capacity = check_int(capacity, "capacity", minimum=1)
        self.enabled = enabled
        self._spans: deque[SpanRecord] = deque(maxlen=capacity)
        self._recorded = 0
        self._lock = threading.Lock()

    @property
    def spans(self) -> list[SpanRecord]:
        """The retained spans, oldest first (a snapshot)."""
        with self._lock:
            return list(self._spans)

    @property
    def dropped(self) -> int:
        """Spans recorded but no longer retained."""
        with self._lock:
            return self._recorded - len(self._spans)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Time a stage: ``with tracer.span("planner.evaluate", n=20): ...``

        Records a :class:`SpanRecord` on exit (also when the body
        raises — the exception propagates, the duration is kept).
        Yields the span's attribute dict, so the body can add attributes
        it learns late (an answer's status, say).
        """
        if not self.enabled:
            yield attrs
            return
        ctx, token = _context.enter_span()
        depth = _open_spans.get()
        depth_token = _open_spans.set(depth + 1)
        start = perf_counter()
        try:
            yield attrs
        finally:
            duration = perf_counter() - start
            _open_spans.reset(depth_token)
            _context.exit_span(token)
            self._record(SpanRecord(name, start, duration, depth, attrs,
                                    trace_id=ctx.trace_id,
                                    span_id=ctx.span_id,
                                    parent_id=ctx.parent_id,
                                    pid=os.getpid()))

    def record(self, name: str, duration_s: float, **attrs: Any) -> None:
        """Record an externally-timed span as a child of the current
        context.

        For sites that already measured a duration (a process-pool task
        timed worker-side, a store lookup timed around a lock) and only
        need it to appear in the trace tree.  ``start_s`` is back-dated
        by *duration_s* from now.
        """
        if not self.enabled:
            return
        ctx, token = _context.enter_span()
        _context.exit_span(token)
        now = perf_counter()
        self._record(SpanRecord(name, now - duration_s, duration_s,
                                _open_spans.get(), attrs,
                                trace_id=ctx.trace_id, span_id=ctx.span_id,
                                parent_id=ctx.parent_id, pid=os.getpid()))

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)
            self._recorded += 1

    def clear(self) -> None:
        """Forget every recorded span (the drop counter too)."""
        with self._lock:
            self._spans.clear()
            self._recorded = 0

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_jsonl(self, path: str | Path) -> None:
        """Write one JSON object per span, in record order (JSONL).

        :func:`read_jsonl` loads the file back."""
        with Path(path).open("w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Aggregate spans by name: count, total/mean/min/max seconds."""
        out: dict[str, dict[str, float]] = {}
        for record in self.spans:
            agg = out.get(record.name)
            if agg is None:
                out[record.name] = {
                    "count": 1, "total_s": record.duration_s,
                    "min_s": record.duration_s, "max_s": record.duration_s,
                }
            else:
                agg["count"] += 1
                agg["total_s"] += record.duration_s
                agg["min_s"] = min(agg["min_s"], record.duration_s)
                agg["max_s"] = max(agg["max_s"], record.duration_s)
        for agg in out.values():
            agg["mean_s"] = agg["total_s"] / agg["count"]
        return out

    def summary_table(self) -> str:
        """Fixed-width rendering of :meth:`summary` (the ``--profile``
        output), sorted by total time descending."""
        rows = sorted(self.summary().items(),
                      key=lambda item: -item[1]["total_s"])
        headers = ("span", "count", "total_s", "mean_s", "min_s", "max_s")
        body = [(name, f"{agg['count']:.0f}", f"{agg['total_s']:.6f}",
                 f"{agg['mean_s']:.6f}", f"{agg['min_s']:.6f}",
                 f"{agg['max_s']:.6f}") for name, agg in rows]
        widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h)
                  for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)),
                 "  ".join("-" * w for w in widths)]
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if self.dropped:
            lines.append(f"({self.dropped} oldest spans dropped at "
                         f"capacity {self.capacity})")
        return "\n".join(lines)


_default = Tracer()


def default_tracer() -> Tracer:
    """The process-global tracer instrumentation falls back to."""
    return _default


def set_default_tracer(tracer: Tracer) -> Tracer:
    """Install *tracer* as the process-global default; returns the old one."""
    global _default
    old, _default = _default, tracer
    return old


def span(name: str, **attrs: Any):
    """A span on the *current* default tracer (module-level convenience).

    Instrumentation sites call this; scoping which tracer collects is
    the caller's job via :func:`set_default_tracer`.
    """
    return _default.span(name, **attrs)


# ---------------------------------------------------------------------------
# trace reassembly (the ``repro obs report`` engine)
# ---------------------------------------------------------------------------
def read_jsonl(paths: Iterable[str | Path]) -> list[SpanRecord]:
    """Load spans back from one or more :meth:`Tracer.to_jsonl` files.

    Files from different processes (client and server dumps of the same
    request) concatenate freely — reassembly keys on ids, not order.
    Blank lines are skipped; malformed lines raise ``ValueError`` naming
    the file and line number.
    """
    records: list[SpanRecord] = []
    for path in paths:
        path = Path(path)
        with path.open() as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(SpanRecord.from_dict(json.loads(line)))
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise ValueError(
                        f"{path}:{lineno}: not a span record: {exc}") from exc
    return records


#: Members every exported span must carry, and their types.
_SPAN_FIELDS = {"name": str, "start_s": (int, float),
                "duration_s": (int, float), "trace_id": str, "span_id": str}


def validate_span(span: object) -> list[str]:
    """Every way one span breaks the :meth:`SpanRecord.to_dict` schema.

    Empty when valid.  A string ``name``, numeric ``start_s``,
    non-negative ``duration_s``, non-empty string ``trace_id`` and
    ``span_id``; ``parent_id`` is a non-empty string or null, ``pid`` an
    integer or null and ``attrs`` an object when present.
    """
    if not isinstance(span, dict):
        return [f"span must be a JSON object, got {type(span).__name__}"]
    problems: list[str] = []
    for name, kind in _SPAN_FIELDS.items():
        value = span.get(name)
        if not is_a(value, kind):
            problems.append(f"'{name}' must be "
                            f"{getattr(kind, '__name__', 'numeric')}, "
                            f"got {value!r}")
        elif kind is str and not value:
            problems.append(f"'{name}' must be non-empty")
    duration = span.get("duration_s")
    if isinstance(duration, (int, float)) and duration < 0:
        problems.append(f"'duration_s' must be >= 0, got {duration!r}")
    parent = span.get("parent_id")
    if parent is not None and (not isinstance(parent, str) or not parent):
        problems.append(f"'parent_id' must be a non-empty string or null, "
                        f"got {parent!r}")
    pid = span.get("pid")
    if pid is not None and not is_a(pid, int):
        problems.append(f"'pid' must be an integer or null, got {pid!r}")
    attrs = span.get("attrs")
    if attrs is not None and not isinstance(attrs, dict):
        problems.append(f"'attrs' must be an object, got {attrs!r}")
    return problems


def span_graph_problems(spans: list[dict[str, Any]]) -> list[str]:
    """Invariants across spans that each passed :func:`validate_span`.

    Span ids are unique, and no span is its own ancestor (a parent id
    absent from *spans* is fine: that is how a child process's subtree
    names its remote caller).  Within one ``(trace_id, pid)`` a child
    never starts before its parent; ``perf_counter`` epochs differ
    between processes, so timestamps are compared per pid only.
    """
    problems: list[str] = []
    by_id: dict[str, dict[str, Any]] = {}
    for span in spans:
        sid = span["span_id"]
        if sid in by_id:
            problems.append(f"span id {sid!r} appears more than once")
        by_id[sid] = span
    for span in spans:
        seen = {span["span_id"]}
        node = span
        while True:
            parent = by_id.get(node.get("parent_id") or "")
            if parent is None:
                break  # root, or a remote parent outside these spans
            if parent["span_id"] in seen:
                problems.append(f"span {span['span_id']!r} "
                                f"({span['name']}): parentage cycle via "
                                f"{parent['span_id']!r}")
                break
            seen.add(parent["span_id"])
            node = parent
        parent = by_id.get(span.get("parent_id") or "")
        if parent is not None \
                and parent.get("trace_id") == span.get("trace_id") \
                and parent.get("pid") == span.get("pid") \
                and span["start_s"] < parent["start_s"]:
            problems.append(
                f"span {span['span_id']!r} ({span['name']}) starts at "
                f"{span['start_s']} before its parent "
                f"{parent['span_id']!r} at {parent['start_s']}")
    return problems


def validate_jsonl(text: str) -> list[str]:
    """Every problem of one :meth:`Tracer.to_jsonl` dump.

    Each line's problems, prefixed ``line N:``, then the graph
    invariants over its spans.
    """
    spans, problems = jsonl_problems(text, validate_span)
    return problems + span_graph_problems(spans)


def assemble_traces(
        records: Iterable[SpanRecord],
) -> dict[str, list[dict[str, Any]]]:
    """Group spans by ``trace_id`` and link them into parent/child trees.

    Returns ``{trace_id: [root_node, ...]}`` where each node is
    ``{"record": SpanRecord, "children": [node, ...]}``.  A span whose
    ``parent_id`` is None **or refers to a span not in the input** (the
    remote caller's span when only one side's JSONL is present) becomes
    a root of its trace.  Children sort by ``start_s`` within each
    process (cross-process clocks are not comparable) and ids missing
    entirely (pre-correlation files) group under trace id ``"-"``.
    """
    by_trace: dict[str, list[SpanRecord]] = {}
    for record in records:
        by_trace.setdefault(record.trace_id or "-", []).append(record)
    out: dict[str, list[dict[str, Any]]] = {}
    for trace_id, spans in by_trace.items():
        nodes = {id(r): {"record": r, "children": []} for r in spans}
        by_span_id = {r.span_id: nodes[id(r)] for r in spans
                      if r.span_id is not None}
        roots: list[dict[str, Any]] = []
        for record in spans:
            node = nodes[id(record)]
            parent = (by_span_id.get(record.parent_id)
                      if record.parent_id is not None else None)
            if parent is None or parent is node:
                roots.append(node)
            else:
                parent["children"].append(node)
        def order(node: dict[str, Any]) -> tuple:
            r = node["record"]
            return (r.pid if r.pid is not None else -1, r.start_s)
        for node in nodes.values():
            node["children"].sort(key=order)
        roots.sort(key=order)
        out[trace_id] = roots
    return out


def render_trace_trees(records: Iterable[SpanRecord]) -> str:
    """ASCII rendering of :func:`assemble_traces` — one indented tree
    per trace, each line ``name duration [pid] key=value ...``."""
    trees = assemble_traces(records)
    lines: list[str] = []
    for trace_id in sorted(trees):
        roots = trees[trace_id]
        count = sum(1 for _ in _walk(roots))
        pids = {node["record"].pid for node in _walk(roots)}
        lines.append(f"trace {trace_id}  ({count} span"
                     f"{'s' if count != 1 else ''}, {len(pids)} process"
                     f"{'es' if len(pids) != 1 else ''})")
        for root in roots:
            _render_node(root, "  ", lines)
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def _walk(roots: list[dict[str, Any]]) -> Iterator[dict[str, Any]]:
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node["children"])


def _render_node(node: dict[str, Any], indent: str,
                 lines: list[str]) -> None:
    r = node["record"]
    attrs = " ".join(f"{k}={v}" for k, v in sorted(r.attrs.items()))
    pid = f" [pid {r.pid}]" if r.pid is not None else ""
    lines.append(f"{indent}{r.name}  {r.duration_s * 1e3:.3f}ms{pid}"
                 f"{'  ' + attrs if attrs else ''}")
    for child in node["children"]:
        _render_node(child, indent + "  ", lines)
