"""Per-layer timing for the end-to-end benchmark, recorded from outside.

The program carries spans of its own, but this benchmark must not depend
on them: a later change to the program's instrumentation would move the
numbers it is judged by.  :func:`install` instead wraps each layer's
functions *at their call sites* (the module attribute or class method the
caller looks up at call time) and records one span per call in memory:
name, start, end, parent span and, where the program has one, the request
trace id or the sweep point.  Parents follow a :mod:`contextvars` stack,
so spans nest correctly across asyncio tasks and the server's
``copy_context`` executor hop.

:func:`breakdown` turns spans into per-layer *self time* (a span's
duration minus the part of it its children cover) and calls, normalised
per end-to-end operation.  Where one layer runs at a time, the self times
of an operation's tree add up to its end-to-end time (spans that overlap
on other threads count in full), so the root's own self time (the
load generator's request, the sweep CLI's ``main``) is what no named
layer explains: it is reported apart, as unattributed time.

Run as a script, this module is the traced launcher: it installs the
wrappers, runs the program's own CLI in-process (so the process layout
matches an untraced run) and writes the spans as JSONL when the CLI
returns::

    PYTHONPATH=src python benchmarks/e2e/layers.py --spans-out S.jsonl \\
        -- serve --port 0 --cache-dir C --ready-file R
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
from time import perf_counter
from typing import Any, Callable, Iterable

#: Substrate family constructors, wrapped as one layer.
_SUBSTRATES = ("tdma_schedule", "polynomial_schedule", "steiner_schedule",
               "projective_plane_schedule", "mols_schedule")
#: Topology generators the sweep engine may call, wrapped as one layer.
_TOPOLOGIES = ("worst_case_regular", "ring", "grid", "star", "random_tree",
               "unit_disk")


def call_sites() -> list[tuple[str, Any, str]]:
    """``(layer, owner, attribute)`` for every wrapped call site.

    The owner is where the *caller* looks the name up: the planner imports
    ``construct_detailed`` by name, so the planner module is patched, while
    the sweep engine imports ``construct`` from its module at call time, so
    :mod:`repro.core.construction` is.
    """
    import repro.analysis.sweeps as sweeps
    import repro.core.construction as construction
    import repro.core.nonsleeping as nonsleeping
    import repro.core.planner as planner
    import repro.serve.coalesce as coalesce
    import repro.serve.server as server
    import repro.service.api as api
    import repro.service.store as store
    import repro.simulation.engine as engine
    import repro.simulation.topology as topology

    sites = [
        ("serve.server.request", server.ScheduleServer, "_handle_connection"),
        ("serve.server.encode", server, "_encode"),
        ("serve.coalesce.run", coalesce.Coalescer, "run"),
        ("service.api.provision_batch_report", server,
         "provision_batch_report"),
        ("service.api.to_dict", api.ProvisionResult, "to_dict"),
        ("service.store.get_plan", store.ScheduleStore, "get_plan"),
        ("service.store.get_eval", store.ScheduleStore, "get_eval"),
        ("service.store.put_eval", store.ScheduleStore, "put_eval"),
        ("service.store.put_plan", store.ScheduleStore, "put_plan"),
        ("core.planner.candidate_sources", api, "candidate_sources"),
        ("service.runtime.execute_tasks", api, "execute_tasks"),
        ("service.runtime.execute_tasks", sweeps, "execute_tasks"),
        ("core.construction.construct_detailed", planner,
         "construct_detailed"),
        ("core.throughput.average_throughput", planner, "average_throughput"),
        ("core.construction.construct", construction, "construct"),
        ("analysis.sweeps.run", sweeps.SweepRunner, "run"),
        ("analysis.sweeps.point", sweeps, "_evaluate_point"),
        ("analysis.sweeps.checkpoint", sweeps.SweepRunner,
         "_write_checkpoint"),
        ("analysis.sweeps.render_row", sweeps, "render_row"),
        ("simulation.engine.run", engine.Simulator, "run"),
    ]
    for name in _SUBSTRATES:
        sites.append(("core.nonsleeping.substrate", nonsleeping, name))
        sites.append(("core.nonsleeping.substrate", planner, name))
    for name in _TOPOLOGIES:
        sites.append(("simulation.topology.build", topology, name))
    return sites


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        from repro.obs.context import current_trace_id

        self.spans: list[dict[str, Any]] = []
        # Ids stay unique across processes (a restarted server, several
        # CLI runs) so span files can be analysed together.
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[str | None] = \
            contextvars.ContextVar("e2e_span", default=None)
        self._trace_id = current_trace_id

    def _open(self, op: str | None) -> tuple[str, str | None, Any, str | None]:
        sid = f"{self._pid}:{next(self._ids)}"
        parent = self._current.get()
        token = self._current.set(sid)
        return sid, parent, token, op if op is not None else self._trace_id()

    def _close(self, name: str, sid: str, parent: str | None, token: Any,
               op: str | None, start: float, extra: dict | None) -> None:
        end = perf_counter()
        self._current.reset(token)
        span = {"id": sid, "parent": parent, "name": name, "start": start,
                "end": end, "op": op}
        if extra:
            span.update(extra)
        self.spans.append(span)  # list.append is atomic under the GIL

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A timing wrapper around *fn* recording spans named *name*."""
        op_of = _OP_OF.get(name)
        note = _NOTE.get(name)
        wait = _LOOP_WAIT.get(name)
        if inspect.iscoroutinefunction(fn):
            async def run(created, args, kwargs):
                sid, parent, token, op = self._open(
                    op_of(args) if op_of else None)
                start = perf_counter()
                if created is not None:
                    # The span starts when the coroutine was created; its
                    # first child is the wait until the loop ran it.
                    self.spans.append({
                        "id": f"{self._pid}:{next(self._ids)}",
                        "parent": sid, "name": wait, "start": created,
                        "end": start, "op": op})
                    start = created
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(name, sid, parent, token, op, start, None)

            if wait is None:
                @functools.wraps(fn)
                async def traced_async(*args, **kwargs):
                    return await run(None, args, kwargs)
            else:
                @functools.wraps(fn)
                def traced_async(*args, **kwargs):
                    return run(perf_counter(), args, kwargs)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, token, op = self._open(op_of(args) if op_of else None)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(name, sid, parent, token, op, start,
                            note(result) if note and result is not None
                            else None)
        return traced

    def write_jsonl(self, path: str) -> None:
        """Dump every recorded span, one JSON object per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _point_id(args: tuple) -> str:
    point = args[1]
    return (f"{point.family}/{point.n}/{point.d}/{point.traffic}/"
            f"{point.seed}")


#: Layers whose span carries an operation id the program does not put in
#: a trace context: a sweep point is identified by its grid coordinates.
_OP_OF: dict[str, Callable[[tuple], str]] = {
    "analysis.sweeps.point": _point_id,
}
#: Coroutine layers the event loop creates when work arrives and runs
#: later: the connection handler is created as the connection is accepted.
#: The gap is recorded as a child span of the name given here.
_LOOP_WAIT: dict[str, str] = {
    "serve.server.request": "serve.server.loop_wait",
}
#: Layers whose result is summarised onto the span.
_NOTE: dict[str, Callable[[Any], dict]] = {
    "simulation.engine.run": lambda metrics: {"slots": int(metrics.slots)},
}


def install() -> Recorder:
    """Wrap every call site of :func:`call_sites`; returns the recorder."""
    recorder = Recorder()
    for name, owner, attr in call_sites():
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr)))
    return recorder


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def read_jsonl(path) -> list[dict[str, Any]]:
    """Spans written by :meth:`Recorder.write_jsonl`."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(start: float, end: float,
             intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    covered, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def breakdown(spans: list[dict[str, Any]], roots: list[dict[str, Any]]
              ) -> dict[str, Any]:
    """Per-layer self time and calls over the trees under *roots*.

    *roots* are the end-to-end operations: ``serve.client.request`` spans
    recorded by the load generator (joined to the server's request span
    by trace id), or the program's own ``cli.sweep`` spans.  A server
    request span starts before the request's trace id is known, so it
    takes the ``op`` of its first descendant that has one.  Returns
    ``{"layers": {name: {"self_s", "calls"}}, "e2e_s": total root
    duration, "root_self_s": the part of it no named layer under a root
    covers, "slots": slots simulated under the roots}``.
    """
    children: dict[Any, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    by_op: dict[str, list[dict]] = {}
    for s in spans:
        if s["name"] != "serve.server.request":
            continue
        stack = list(children.get(s["id"], ()))
        while stack and s["op"] is None:
            child = stack.pop()
            s["op"] = child["op"]
            stack.extend(children.get(child["id"], ()))
        if s["op"] is not None:
            by_op.setdefault(s["op"], []).append(s)

    layers: dict[str, dict[str, float]] = {}
    e2e = root_self = 0.0
    slots = 0
    for root in roots:
        e2e += root["end"] - root["start"]
        kids = children.get(root["id"], []) + (
            by_op.get(root["op"], [])
            if root["name"] == "serve.client.request" else [])
        stack = [(root, kids)]
        while stack:
            span, kids = stack.pop()
            own = span["end"] - span["start"] - _covered(
                span["start"], span["end"],
                ((k["start"], k["end"]) for k in kids))
            entry = layers.setdefault(span["name"],
                                      {"self_s": 0.0, "calls": 0})
            entry["self_s"] += own
            entry["calls"] += 1
            if span is root:
                root_self += own
            slots += span.get("slots", 0)
            stack.extend((k, children.get(k["id"], [])) for k in kids)
    return {"layers": layers, "e2e_s": e2e, "root_self_s": root_self,
            "slots": slots}


def main(argv: list[str]) -> int:
    """The traced launcher: ``--spans-out PATH -- <repro CLI args>``."""
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print("usage: layers.py --spans-out PATH -- <repro args>",
              file=sys.stderr)
        return 2
    out, cli_args = argv[1], argv[3:]
    recorder = install()
    import repro.cli

    try:
        if cli_args and cli_args[0] == "sweep":
            # One CLI invocation is one end-to-end sweep operation.
            return recorder.wrap("cli.sweep", repro.cli.main)(cli_args)
        return repro.cli.main(cli_args)
    finally:
        recorder.write_jsonl(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
