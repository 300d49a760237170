"""Command-line interface.

``python -m repro <command>`` exposes the deployment workflow without
writing Python:

=============  =============================================================
``build``      build a topology-transparent duty-cycled schedule for
               ``(n, D, alpha_T, alpha_R)`` and write it as JSON
``plan``       search families and budgets: ``(n, D, max duty)`` -> JSON
``provision``  batch planning service: JSONL requests in, JSONL plans
               out, with a persistent schedule cache
``verify``     exact topology-transparency decision for a schedule file
``analyze``    throughput/duty/latency report for a schedule file
``simulate``   run the slot simulator on a generated topology
``sweep``      sharded, resumable simulation sweeps: JSONL specs in,
               JSONL result rows out, with ``--jobs``/``--resume``
``families``   frame-length table of every substrate family for (n, D)
``serve``      always-on asyncio schedule server (HTTP/JSON): hot cache,
               request coalescing, admission control, ``/metrics``;
               ``--supervise`` wraps it in a restarting supervisor
``call``       client for a running server: health, provision, plan,
               metrics/SLO/flight-recorder scrapes; ``--trace``
               correlates the whole call
``obs``        observability tooling: ``report`` reassembles span JSONL
               into per-request trace trees, ``slo`` evaluates
               objectives against a metrics snapshot, ``top`` renders a
               live server's rates/latency/coalesce state from its
               ``/metrics/history`` ring, ``bench-diff`` gates
               benchmark sidecars against a recorded baseline
``store``      schedule-store maintenance: ``scrub`` (integrity pass with
               quarantine) and ``clear``
=============  =============================================================

Every command reads/writes the versioned JSON format of
:mod:`repro.core.serialization`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def _obs_parent() -> argparse.ArgumentParser:
    """The observability flags every subcommand shares (see
    docs/observability.md): log level/format, metrics and trace export,
    and the ``--profile`` span-summary table."""
    obs = argparse.ArgumentParser(add_help=False)
    group = obs.add_argument_group("observability")
    group.add_argument("--log-level", default=None,
                       choices=["debug", "info", "warning", "error"],
                       help="log verbosity (default: warning; info when "
                            "--log-format json)")
    group.add_argument("--log-format", default="human",
                       choices=["human", "json"],
                       help="log line format on stderr (default human)")
    group.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the metrics registry snapshot as JSON "
                            "here when the command finishes")
    group.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write recorded spans as JSONL here when the "
                            "command finishes")
    group.add_argument("--profile", action="store_true",
                       help="print a per-span timing summary table to "
                            "stderr when the command finishes")
    group.add_argument("--sample-profile", default=None, metavar="PATH",
                       help="run the command under the sampling profiler "
                            "and write the collapsed-stack profile here "
                            "(flamegraph input; see docs/observability.md)")
    group.add_argument("--sample-hz", type=int, default=100, metavar="HZ",
                       help="sampling frequency for --sample-profile "
                            "(default 100)")
    return obs


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Topology-transparent duty cycling (IPPS 2007) toolkit",
    )
    obs = _obs_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[obs],
                       help="construct a duty-cycled TT schedule")
    p.add_argument("-n", type=int, required=True, help="class bound on nodes")
    p.add_argument("-d", type=int, required=True, help="class bound on degree")
    p.add_argument("--alpha-t", type=int, required=True)
    p.add_argument("--alpha-r", type=int, required=True)
    p.add_argument("--family", default="auto",
                   choices=["auto", "tdma", "polynomial", "steiner",
                            "projective", "mols"])
    p.add_argument("--balanced", action="store_true",
                   help="use the balanced-energy divisions")
    p.add_argument("-o", "--output", required=True, help="output JSON path")

    p = sub.add_parser("plan", parents=[obs], help="pick family and budget from a duty cap")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--max-duty", type=float, required=True)
    p.add_argument("--balanced", action="store_true")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("provision", parents=[obs],
                       help="batch schedule provisioning (JSONL in/out)")
    p.add_argument("-i", "--input", default="-",
                   help="JSONL request file, one {n, d, max_duty[, balanced]} "
                        "object per line; '-' reads stdin (default)")
    p.add_argument("-o", "--output", default="-",
                   help="JSONL result path; '-' writes stdout (default)")
    p.add_argument("--cache-dir", default=None,
                   help="schedule-store root (default: "
                        "$XDG_CACHE_HOME/repro/schedules)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the schedule store entirely")
    p.add_argument("--no-schedules", action="store_true",
                   help="omit the flashable slot tables from result lines")
    p.add_argument("--stats", action="store_true",
                   help="print schedule-store statistics (hits, misses, "
                        "corruptions, evictions) as JSON to stderr")

    p = sub.add_parser("serve", parents=[obs],
                       help="run the always-on schedule server (HTTP/JSON)")
    p.add_argument("--host", default="127.0.0.1",
                   help="listen address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8177,
                   help="listen port; 0 binds an ephemeral port "
                        "(default 8177)")
    p.add_argument("--jobs", type=int, default=2,
                   help="planner thread-pool width: provisioning requests "
                        "computed concurrently (default 2)")
    p.add_argument("--max-inflight", type=int, default=64,
                   help="admission bound; beyond it requests get an "
                        "explicit 503 overloaded (default 64)")
    p.add_argument("--deadline", type=float, default=30.0,
                   help="per-request processing deadline in seconds; "
                        "0 disables (default 30)")
    p.add_argument("--flight-capacity", type=int, default=128,
                   help="server traces GET /debugz returns, newest first "
                        "(default 128)")
    p.add_argument("--cache-dir", default=None,
                   help="schedule-store root (default: "
                        "$XDG_CACHE_HOME/repro/schedules)")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without a persistent schedule store")
    p.add_argument("--ready-file", default=None, metavar="PATH",
                   help="write '<host> <port>' here once the listener is "
                        "bound (for scripts; works with --port 0)")
    p.add_argument("--pid-file", default=None, metavar="PATH",
                   help="write the serving process's pid here once the "
                        "listener is bound (chaos drills kill it)")
    p.add_argument("--history-interval", type=float, default=5.0,
                   help="seconds between metrics-history scrapes backing "
                        "GET /metrics/history (default 5)")
    sup = p.add_argument_group("supervision")
    sup.add_argument("--supervise", action="store_true",
                     help="run the server as a supervised child: crashed "
                          "processes restart with seeded backoff; a crash "
                          "loop exits nonzero")
    sup.add_argument("--max-restarts", type=int, default=5,
                     help="crashes tolerated per --restart-window before "
                          "the supervisor gives up (default 5)")
    sup.add_argument("--restart-window", type=float, default=60.0,
                     help="sliding crash-loop window in seconds "
                          "(default 60)")
    sup.add_argument("--restart-backoff-base", type=float, default=0.2,
                     help="base of the exponential restart backoff in "
                          "seconds (default 0.2)")
    sup.add_argument("--restart-seed", type=int, default=0,
                     help="seed for the restart-backoff jitter "
                          "(reproducible chaos drills)")

    p = sub.add_parser("store", parents=[obs],
                       help="schedule-store maintenance")
    p.add_argument("action", choices=["scrub", "clear"],
                   help="scrub: re-validate every entry and quarantine the "
                        "bad ones; clear: drop every entry")
    p.add_argument("--cache-dir", default=None,
                   help="schedule-store root (default: "
                        "$XDG_CACHE_HOME/repro/schedules)")

    p = sub.add_parser("call", parents=[obs],
                       help="call a running schedule server")
    p.add_argument("action", choices=["health", "provision", "plan",
                                      "metrics", "slo", "debugz"])
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8177)
    p.add_argument("--timeout", type=float, default=60.0,
                   help="per-attempt socket timeout in seconds (default 60)")
    p.add_argument("--retries", type=int, default=3,
                   help="extra attempts for connection failures and "
                        "overloaded/draining responses (default 3)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the retry-backoff jitter (reproducible "
                        "load tests)")
    p.add_argument("--retry-budget", type=float, default=None,
                   help="total wall-clock the retries of one request may "
                        "spend, in seconds (default: unbounded)")
    p.add_argument("-i", "--input", default="-",
                   help="provision: JSONL request file ('-' = stdin)")
    p.add_argument("-o", "--output", default="-",
                   help="provision: JSONL result path ('-' = stdout); "
                        "plan: write the flashable schedule JSON here")
    p.add_argument("--no-schedules", action="store_true",
                   help="provision: omit slot tables from result lines")
    p.add_argument("-n", type=int, default=None, help="plan: class bound n")
    p.add_argument("-d", type=int, default=None, help="plan: class bound D")
    p.add_argument("--max-duty", default=None,
                   help="plan: duty budget (float or 'p/q')")
    p.add_argument("--balanced", action="store_true",
                   help="plan: balanced-energy divisions")
    p.add_argument("--json", action="store_true",
                   help="metrics: fetch the repro-metrics JSON snapshot "
                        "instead of the Prometheus text")
    p.add_argument("--trace", action="store_true",
                   help="open a trace scope for the call and print its "
                        "trace id to stderr; the server, planner and "
                        "store stamp the same id on their logs and spans")

    p = sub.add_parser("obs", parents=[obs],
                       help="observability tooling: trace reassembly, SLO "
                            "evaluation, live server top, bench regression "
                            "gate")
    p.add_argument("action", choices=["report", "slo", "top", "bench-diff"],
                   help="report: render per-request span trees from "
                        "trace JSONL; slo: evaluate objectives against a "
                        "metrics snapshot (exit 1 on a burned objective); "
                        "top: live req/s, latency quantiles and coalesce "
                        "hit rate of a running server; bench-diff: "
                        "compare current bench sidecars against a baseline "
                        "(exit 1 on regression)")
    p.add_argument("traces", nargs="*",
                   help="report: span JSONL files (--trace-out output), "
                        "merged before reassembly")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="slo: the repro-metrics JSON snapshot to evaluate")
    p.add_argument("--objectives", default=None, metavar="PATH",
                   help="slo: JSON list of objective documents "
                        "(default: the serve tier's built-in objectives)")
    p.add_argument("--host", default="127.0.0.1",
                   help="top: server address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8177,
                   help="top: server port (default 8177)")
    p.add_argument("--once", action="store_true",
                   help="top: print one table and exit (for CI and scripts)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="top: seconds between refreshes (default 2)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="bench-diff: baseline — a history.jsonl (newest "
                        "record per bench wins), a single summary sidecar, "
                        "or a results directory")
    p.add_argument("--results-dir", default="benchmarks/results",
                   help="bench-diff: directory holding the current "
                        "repro-bench-summary sidecars "
                        "(default benchmarks/results)")
    p.add_argument("--threshold", type=float, default=1.5,
                   help="bench-diff: multiplicative noise threshold; a "
                        "lower-is-better metric regresses beyond "
                        "baseline*T (default 1.5)")
    p.add_argument("--threshold-for", action="append", default=[],
                   metavar="METRIC=RATIO",
                   help="bench-diff: per-metric threshold override "
                        "(repeatable)")
    p.add_argument("--json", dest="obs_json", action="store_true",
                   help="bench-diff: print the full report as JSON")

    p = sub.add_parser("verify", parents=[obs], help="exact transparency decision")
    p.add_argument("schedule", help="schedule JSON path")
    p.add_argument("-d", type=int, required=True)

    p = sub.add_parser("analyze", parents=[obs], help="throughput / duty / latency report")
    p.add_argument("schedule")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--latency", action="store_true",
                   help="also compute the exact worst-case per-hop delay "
                        "(exponential in D; small instances only)")

    p = sub.add_parser("simulate", parents=[obs], help="run the slot simulator")
    p.add_argument("schedule")
    p.add_argument("--topology", default="grid",
                   choices=["grid", "ring", "unit-disk", "regular"])
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--traffic", default="saturated",
                   choices=["saturated", "poisson", "sensing"])
    p.add_argument("--rate", type=float, default=0.01,
                   help="poisson arrival rate (packets/node/slot)")
    p.add_argument("--period", type=int, default=200,
                   help="sensing report period in slots")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--node-crash-rate", type=float, default=0.0,
                   help="per-node per-slot crash probability (fault "
                        "injection; geometric sojourns)")
    p.add_argument("--node-recover-rate", type=float, default=0.0,
                   help="per-slot recovery probability for crashed nodes "
                        "(0 = crashes are permanent)")
    p.add_argument("--link-loss", type=float, default=0.0,
                   help="probability a clean reception is destroyed anyway "
                        "(lossy-radio fault injection)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for deterministic fault injection")
    p.add_argument("--fault-plan", default=None,
                   help="JSON fault-plan file; overrides the individual "
                        "fault flags (see docs/robustness.md)")

    p = sub.add_parser("sweep", parents=[obs],
                       help="sharded parameter sweep over the simulator "
                            "(JSONL in/out)")
    p.add_argument("-i", "--input", default="-",
                   help="JSONL sweep-spec file, one spec object per line "
                        "(see docs/sweeps.md); '-' reads stdin (default)")
    p.add_argument("-o", "--output", default="-",
                   help="JSONL result path; '-' writes stdout (default)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker-pool width for shard evaluation (default 1)")
    p.add_argument("--shard-size", type=int, default=8,
                   help="grid points per shard — the unit of checkpointing "
                        "and retry (default 8)")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="write per-shard checkpoints here (content-"
                        "addressed JSONL); required for --resume")
    p.add_argument("--resume", action="store_true",
                   help="reuse valid checkpoints from --checkpoint-dir "
                        "instead of recomputing their shards")
    p.add_argument("--task-timeout", type=float, default=None,
                   help="per-shard wall-clock budget in seconds of a pool "
                        "worker (needs --jobs > 1); a hung worker is "
                        "reclaimed and the shard retried")
    p.add_argument("--max-retries", type=int, default=2,
                   help="faulted attempts a shard may burn beyond its "
                        "first (default 2)")
    p.add_argument("--fault-plan", default=None,
                   help="JSON fault-injection plan (chaos testing; see "
                        "docs/robustness.md for the schema)")

    p = sub.add_parser("families", parents=[obs], help="substrate frame-length table")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)

    p = sub.add_parser("report", parents=[obs], help="markdown certification report")
    p.add_argument("schedule")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--latency", action="store_true",
                   help="include the exact worst-case access delay "
                        "(exponential in D)")
    p.add_argument("-o", "--output", default=None,
                   help="write markdown here instead of stdout")

    p = sub.add_parser("experiment", parents=[obs],
                       help="regenerate one paper artefact by name")
    p.add_argument("name", help="experiment function name, e.g. thm3_sweep; "
                                "use 'list' to enumerate")

    return parser


def _source(family: str, n: int, d: int):
    from repro.core.nonsleeping import (
        best_nonsleeping_schedule,
        mols_schedule,
        polynomial_schedule,
        projective_plane_schedule,
        steiner_schedule,
        tdma_schedule,
    )

    if family == "auto":
        return best_nonsleeping_schedule(n, d)
    factories = {
        "tdma": lambda: tdma_schedule(n),
        "polynomial": lambda: polynomial_schedule(n, d),
        "steiner": lambda: steiner_schedule(n, d),
        "projective": lambda: projective_plane_schedule(n, d),
        "mols": lambda: mols_schedule(n, d),
    }
    return family, factories[family]()


def _cmd_build(args) -> int:
    from repro.core.planner import GridPoint, evaluate_grid_point
    from repro.core.serialization import save_schedule

    family, source = _source(args.family, args.n, args.d)
    plan = evaluate_grid_point(
        GridPoint(family, source, args.alpha_t, args.alpha_r), args.d,
        balanced=args.balanced)
    save_schedule(plan.schedule, args.output,
                  meta=plan.meta(args.d, args.balanced))
    print(f"wrote {args.output}: family={family} L={plan.frame_length} "
          f"duty={float(plan.duty_cycle):.3f}")
    return 0


def _cmd_plan(args) -> int:
    from repro.core.planner import plan_schedule
    from repro.core.serialization import save_schedule

    plan = plan_schedule(args.n, args.d, max_duty=args.max_duty,
                         balanced=args.balanced)
    save_schedule(plan.schedule, args.output,
                  meta=plan.meta(args.d, args.balanced))
    print(f"wrote {args.output}: family={plan.family} "
          f"(aT={plan.alpha_t}, aR={plan.alpha_r}) L={plan.frame_length} "
          f"duty={float(plan.duty_cycle):.3f} "
          f"throughput={float(plan.throughput):.5f}")
    return 0


def _load_fault_plan(path: str | None):
    """Parse a ``--fault-plan`` JSON file into a FaultPlan (or None)."""
    if path is None:
        return None
    from repro.faults import FaultPlan

    with open(path) as fh:
        return FaultPlan.from_dict(json.load(fh))


def _read_jsonl(path: str, from_dict) -> list:
    """``from_dict`` of each JSON line at *path* (``-``: stdin), blank
    lines skipped; a malformed line raises ``ValueError`` naming
    ``path:line``."""
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    docs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            try:
                docs.append(from_dict(json.loads(line)))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return docs


def _write_lines(path: str, lines) -> None:
    """One JSON text per line to *path* (``-``: stdout)."""
    text = "".join(line + "\n" for line in lines)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_provision(args) -> int:
    from repro.service.api import ProvisionRequest, provision_batch
    from repro.service.store import ScheduleStore

    try:
        requests = _read_jsonl(args.input, ProvisionRequest.from_dict)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from repro.obs.metrics import default_registry

    store = None if args.no_cache else ScheduleStore(
        args.cache_dir, registry=default_registry())
    results = provision_batch(requests, store=store)
    _write_lines(args.output, [
        r.to_json(include_schedule=not args.no_schedules) for r in results])
    failed = sum(1 for r in results if r.error is not None)
    cached = sum(1 for r in results if r.from_cache)
    summary = (f"provisioned {len(results) - failed}/{len(results)} requests "
               f"({cached} plan-cache hits")
    if store is not None:
        summary += (f"; store: {store.stats.hits} hits, "
                    f"{store.stats.stores} stores, "
                    f"{store.stats.corruptions} corruptions, "
                    f"{store.stats.evictions} evictions")
    print(summary + ")", file=sys.stderr)
    if args.stats and store is not None:
        print(json.dumps(store.stats.to_metrics_dict()), file=sys.stderr)
    return 1 if failed else 0


def _serve_supervised(args) -> int:
    """``repro serve --supervise``: restart-on-crash around the server."""
    import signal

    from repro.obs.logging import get_logger
    from repro.serve.supervisor import (
        CRASH_LOOP_EXIT_CODE,
        Supervisor,
        SupervisorConfig,
        serve_child_argv,
    )

    try:
        config = SupervisorConfig(max_restarts=args.max_restarts,
                                  restart_window_s=args.restart_window,
                                  backoff_base_s=args.restart_backoff_base,
                                  seed=args.restart_seed)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    supervisor = Supervisor(serve_child_argv(args), config=config,
                            ready_file=args.ready_file)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda _sig, _frame: supervisor.request_stop())
    log = get_logger("cli.serve")
    log.info("supervising schedule server",
             extra={"max_restarts": config.max_restarts,
                    "window_s": config.restart_window_s})
    code = supervisor.run()
    if code == CRASH_LOOP_EXIT_CODE:
        # Message text, not only structured fields: the chaos drills
        # grep stderr for "crash loop" at the default warning level.
        log.error(f"crash loop — more than {config.max_restarts} crashes "
                  f"in {config.restart_window_s:g}s; giving up",
                  extra={"trace_id": supervisor.trace_id})
    elif supervisor.restarts:
        log.warning(f"supervisor exiting after {supervisor.restarts} "
                    f"restart(s)",
                    extra={"trace_id": supervisor.trace_id})
    return code


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.obs.metrics import default_registry
    from repro.serve.server import ScheduleServer, ServeConfig
    from repro.service.store import ScheduleStore

    if args.supervise:
        return _serve_supervised(args)
    try:
        config = ServeConfig(
            host=args.host, port=args.port, jobs=args.jobs,
            max_inflight=args.max_inflight,
            flight_capacity=args.flight_capacity,
            history_interval_s=args.history_interval,
            request_deadline_s=args.deadline if args.deadline > 0 else None)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    registry = default_registry()
    store = None if args.no_cache else ScheduleStore(
        args.cache_dir, registry=registry)

    async def _run() -> None:
        server = ScheduleServer(config, store=store, registry=registry)
        host, port = await server.start()
        # Handlers before the pid/ready files: a SIGTERM sent the moment
        # the ready file appears must drain, not kill, the server.
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, server.begin_drain)
        print(f"serving on http://{host}:{port} "
              f"(jobs={config.jobs}, max_inflight={config.max_inflight})",
              file=sys.stderr, flush=True)
        if args.pid_file:
            # Before the ready file, so ready implies the pid is on disk
            # (chaos drills read it to kill the serving process).
            tmp = Path(f"{args.pid_file}.tmp")
            tmp.write_text(f"{os.getpid()}\n")
            tmp.replace(args.pid_file)
        if args.ready_file:
            # Written atomically so a polling script never reads half a
            # line; the file appearing means the listener is accepting.
            tmp = Path(f"{args.ready_file}.tmp")
            tmp.write_text(f"{host} {port}\n")
            tmp.replace(args.ready_file)
        await server.wait_closed()
        print("drained; exiting", file=sys.stderr)

    asyncio.run(_run())
    return 0


def _cmd_call(args) -> int:
    from repro.serve.client import ServeClient

    try:
        client = ServeClient(args.host, args.port, timeout=args.timeout,
                             retries=args.retries, seed=args.seed,
                             retry_budget_s=args.retry_budget)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        from repro.obs import context as _context

        # One trace scope around the whole action: the client forwards
        # the id, the server/planner/store stamp it on their telemetry.
        with _context.trace_context() as ctx:
            print(f"trace_id {ctx.trace_id}", file=sys.stderr)
            return _call_action(args, client)
    return _call_action(args, client)


def _call_action(args, client) -> int:
    from repro.core.serialization import save_schedule
    from repro.serve.client import ServeError
    from repro.service.api import ProvisionRequest, ProvisionResult

    try:
        if args.action == "health":
            print(json.dumps(client.health(), indent=2))
            return 0
        if args.action == "slo":
            doc = client.slo()
            print(json.dumps(doc, indent=2, sort_keys=True))
            return 0 if doc.get("slo", {}).get("ok") else 1
        if args.action == "debugz":
            print(json.dumps(client.debugz(), indent=2))
            return 0
        if args.action == "metrics":
            if args.json:
                print(json.dumps(client.metrics_snapshot(), indent=2,
                                 sort_keys=True))
            else:
                sys.stdout.write(client.metrics_text())
            return 0
        if args.action == "plan":
            if args.n is None or args.d is None or args.max_duty is None:
                print("error: call plan needs -n, -d and --max-duty",
                      file=sys.stderr)
                return 2
            max_duty: float | str = args.max_duty
            if "/" not in max_duty:
                max_duty = float(max_duty)
            doc = client.plan(args.n, args.d, max_duty,
                              balanced=args.balanced,
                              include_schedule=args.output != "-")
            if args.output != "-" and "schedule" in doc:
                # Decoded first, so no file is written that would not
                # load back; the bytes are what `repro plan -o` writes.
                try:
                    plan = ProvisionResult.from_dict(doc).plan
                except ValueError as exc:
                    print(f"error: server {args.host}:{args.port}: {exc}",
                          file=sys.stderr)
                    return 4
                save_schedule(plan.schedule, args.output,
                              meta=plan.meta(args.d, args.balanced))
                del doc["schedule"]
                print(f"wrote {args.output}", file=sys.stderr)
            print(json.dumps(doc, indent=2))
            return 1 if "error" in doc else 0
        # provision: same JSONL in/out contract as `repro provision`.
        try:
            requests = _read_jsonl(args.input, ProvisionRequest.from_dict)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        docs = client.provision(requests,
                                include_schedules=not args.no_schedules)
        _write_lines(args.output, map(json.dumps, docs))
        failed = sum(1 for doc in docs if "error" in doc)
        print(f"provisioned {len(docs) - failed}/{len(docs)} requests via "
              f"{args.host}:{args.port}", file=sys.stderr)
        return 1 if failed else 0
    except ServeError as exc:
        print(f"error: server {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _render_obs_top(samples: list[dict]) -> str:
    """The ``obs top`` table from a /metrics/history sample list.

    Rates and quantiles are computed over the whole retained window
    (oldest vs newest sample) with the reset-aware deltas, so a server
    restart inside the window reads as a traffic dip, not negative load.
    """
    from repro.obs import timeseries as _ts

    newest = samples[-1]["snapshot"]
    t1 = float(samples[-1]["t_unix"])
    oldest = samples[0]["snapshot"] if len(samples) > 1 else {}
    t0 = float(samples[0]["t_unix"]) if len(samples) > 1 else t1
    window = max(t1 - t0, 0.0)

    requests = _ts.counter_delta(oldest, newest, "repro_serve_requests_total")
    rate = requests / window if window > 0 else None
    bounds, deltas, _count, _sum = _ts.histogram_delta(
        oldest, newest, "repro_serve_request_seconds")
    p50 = _ts.histogram_quantile(bounds, deltas, 0.5)
    p99 = _ts.histogram_quantile(bounds, deltas, 0.99)
    led = _ts.counter_delta(oldest, newest, "repro_serve_coalesce_total",
                            where={"result": "led"})
    joined = _ts.counter_delta(oldest, newest, "repro_serve_coalesce_total",
                               where={"result": "joined"})
    hit = joined / (led + joined) if (led + joined) > 0 else None

    def fmt(value, unit="", scale=1.0, digits=2):
        return "-" if value is None else f"{value * scale:.{digits}f}{unit}"

    return "\n".join([
        f"window    {window:.1f}s over {len(samples)} sample(s)",
        f"requests  {requests:g} ({fmt(rate)}/s)",
        f"p50       {fmt(p50, ' ms', 1000.0)}",
        f"p99       {fmt(p99, ' ms', 1000.0)}",
        f"coalesce  {fmt(hit, '%', 100.0, 1)} joined "
        f"({joined:g}/{led + joined:g})",
    ])


def _obs_top(args) -> int:
    import time as _time

    from repro.obs import timeseries as _ts
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.host, args.port, retries=0)
    while True:
        try:
            samples = _ts.parse_history(client.metrics_history())
        except (ServeError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not samples:
            print("error: the server has not scraped any history yet",
                  file=sys.stderr)
            return 1
        print(_render_obs_top(samples), flush=True)
        if args.once:
            return 0
        try:
            _time.sleep(max(0.1, args.interval))
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0
        print(flush=True)


def _load_bench_baseline(path):
    """A bench-diff baseline: history.jsonl, one sidecar, or a directory."""
    from repro.obs import bench as _bench

    p = Path(path)
    if p.is_dir():
        return _bench.load_sidecars(p)
    try:
        return _bench.latest_by_bench(_bench.read_history(p))
    except ValueError:
        pass  # not history JSONL; try a single JSON document below
    doc = json.loads(p.read_text())
    if isinstance(doc, dict) and doc.get("format") in (
            _bench.SUMMARY_FORMAT, _bench.HISTORY_FORMAT):
        return {str(doc.get("benchmark") or doc.get("bench") or p.stem): doc}
    raise ValueError(f"{path}: neither {_bench.HISTORY_FORMAT} JSONL, a "
                     f"{_bench.SUMMARY_FORMAT} sidecar, nor a directory")


def _obs_bench_diff(args) -> int:
    from repro.obs import bench as _bench

    if args.baseline is None:
        print("error: obs bench-diff needs --baseline PATH", file=sys.stderr)
        return 2
    per_metric = {}
    try:
        for entry in args.threshold_for:
            metric, sep, ratio = entry.partition("=")
            if not sep or not metric:
                raise ValueError(
                    f"--threshold-for wants METRIC=RATIO, got {entry!r}")
            per_metric[metric] = float(ratio)
        current = _bench.load_sidecars(args.results_dir)
        if not current:
            raise ValueError(f"no {_bench.SUMMARY_FORMAT} sidecars under "
                             f"{args.results_dir} (run the benchmarks first)")
        baseline = _load_bench_baseline(args.baseline)
        report = _bench.diff(current, baseline, threshold=args.threshold,
                             per_metric=per_metric)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.obs_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for c in report.compared:
            flag = "REGRESSED" if c.regressed else "ok"
            direction = "down" if c.lower_better else "up"
            ratio = "inf" if c.ratio == float("inf") else f"{c.ratio:.3f}x"
            print(f"{flag:>9}  {c.bench}:{c.key} {c.metric} "
                  f"{c.baseline:g} -> {c.current:g} ({ratio}, want {direction}"
                  f", threshold {c.threshold:g})")
        for name in report.missing_in_baseline:
            print(f"     new   {name} (not in baseline; not gated)")
        for name in report.missing_in_current:
            print(f"    gone   {name} (in baseline only; not gated)")
        print(f"{len(report.compared)} compared, "
              f"{len(report.regressions)} regression(s)")
    return 0 if report.ok else 1


def _cmd_obs(args) -> int:
    if args.action == "top":
        return _obs_top(args)
    if args.action == "bench-diff":
        return _obs_bench_diff(args)
    if args.action == "report":
        from repro.obs.tracing import read_jsonl, render_trace_trees

        if not args.traces:
            print("error: obs report needs at least one trace JSONL path",
                  file=sys.stderr)
            return 2
        try:
            records = read_jsonl(args.traces)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not records:
            print("no spans found", file=sys.stderr)
            return 1
        print(render_trace_trees(records))
        return 0
    # slo: pure evaluation of objectives against an exported snapshot.
    from repro.obs import slo as _slo
    from repro.obs.metrics import validate_snapshot

    if args.metrics is None:
        print("error: obs slo needs --metrics PATH", file=sys.stderr)
        return 2
    try:
        with open(args.metrics) as fh:
            snapshot = json.load(fh)
        problems = validate_snapshot(snapshot)
        for problem in problems:
            print(f"error: {args.metrics}: {problem}", file=sys.stderr)
        if problems:
            return 2
        if args.objectives is not None:
            with open(args.objectives) as fh:
                docs = json.load(fh)
            if not isinstance(docs, list):
                raise ValueError("--objectives must hold a JSON list")
            objectives = [_slo.Objective.from_dict(doc) for doc in docs]
        else:
            objectives = _slo.default_serve_objectives()
        report = _slo.evaluate(objectives, snapshot)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["ok"] else 1


def _cmd_store(args) -> int:
    from repro.obs.metrics import default_registry
    from repro.service.store import ScheduleStore

    store = ScheduleStore(args.cache_dir, registry=default_registry())
    if args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} entries from {store.cache_dir}",
              file=sys.stderr)
        return 0
    # scrub: the integrity pass.  Exit 1 when anything had to be
    # quarantined so cron jobs and CI notice silent corruption.
    report = store.scrub()
    print(json.dumps(report.to_dict(), indent=2))
    if not report.clean:
        print(f"error: {report.corrupt + report.unreadable} bad entries "
              f"({report.quarantined} moved to {store.quarantine_dir})",
              file=sys.stderr)
        return 1
    print(f"scrubbed {report.scanned} entries in {store.cache_dir}: "
          "all clean", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    from repro.core.serialization import load_schedule
    from repro.core.transparency import (
        find_transparency_violation,
        is_topology_transparent,
    )

    sched = load_schedule(args.schedule)
    if is_topology_transparent(sched, args.d):
        print(f"TRANSPARENT for N_{sched.n}^{args.d} (L={sched.frame_length})")
        return 0
    witness = find_transparency_violation(sched, args.d)
    print(f"NOT transparent for N_{sched.n}^{args.d}; witness: {witness}")
    return 1


def _cmd_analyze(args) -> int:
    from repro.core.latency import frame_delay_bound, worst_link_access_delay
    from repro.core.serialization import load_schedule
    from repro.core.throughput import average_throughput, min_throughput

    sched = load_schedule(args.schedule)
    report = {
        "n": sched.n,
        "frame_length": sched.frame_length,
        "tx_per_slot": [min(sched.tx_counts), max(sched.tx_counts)],
        "rx_per_slot": [min(sched.rx_counts), max(sched.rx_counts)],
        "average_duty_cycle": float(sched.average_duty_cycle()),
        "average_worst_case_throughput":
            float(average_throughput(sched, args.d)),
        "minimum_worst_case_throughput":
            float(min_throughput(sched, args.d)),
        "frame_delay_bound": frame_delay_bound(sched),
    }
    if args.latency:
        report["worst_link_access_delay"] = \
            worst_link_access_delay(sched, args.d)
    print(json.dumps(report, indent=2))
    return 0


def _cmd_simulate(args) -> int:
    from math import isqrt

    from repro.core.serialization import load_schedule
    from repro.obs.metrics import default_registry
    from repro.simulation.engine import Simulator
    from repro.simulation.routing import sink_tree
    from repro.simulation.topology import grid, ring, unit_disk, worst_case_regular
    from repro.simulation.traffic import (
        PeriodicSensingTraffic,
        PoissonTraffic,
        SaturatedTraffic,
    )

    sched = load_schedule(args.schedule)
    rng = np.random.default_rng(args.seed)
    if args.topology == "grid":
        side = isqrt(args.nodes)
        if side * side != args.nodes:
            print("error: --topology grid needs a square node count, "
                  f"got {args.nodes}", file=sys.stderr)
            return 2
        topo = grid(side, side)
    elif args.topology == "ring":
        topo = ring(args.nodes)
    elif args.topology == "unit-disk":
        topo = unit_disk(args.nodes, args.d, rng=rng)
    else:
        topo = worst_case_regular(args.nodes, args.d,
                                  seed=int(rng.integers(2**31 - 1)))
    if args.traffic == "saturated":
        traffic = SaturatedTraffic(topo)
        hops = None
    elif args.traffic == "poisson":
        traffic = PoissonTraffic(topo, args.rate, rng)
        hops = None
    else:
        traffic = PeriodicSensingTraffic(topo, sink=0, period=args.period)
        hops = sink_tree(topo, 0)
    if args.fault_plan is not None:
        faults = _load_fault_plan(args.fault_plan)
    elif args.node_crash_rate or args.node_recover_rate or args.link_loss:
        from repro.faults import FaultPlan

        faults = FaultPlan(seed=args.fault_seed,
                           node_crash_rate=args.node_crash_rate,
                           node_recover_rate=args.node_recover_rate,
                           link_loss=args.link_loss)
    else:
        faults = None
    sim = Simulator(topo, sched, traffic, next_hops=hops, faults=faults,
                    registry=default_registry())
    metrics = sim.run(frames=args.frames)
    links = topo.directed_links()
    mean_latency = metrics.mean_latency()
    print(json.dumps({
        "slots": metrics.slots,
        "delivery_ratio": metrics.delivery_ratio(),
        "collisions": metrics.total_collisions(),
        "mean_link_throughput":
            metrics.mean_link_throughput(links, sched.frame_length),
        "min_link_throughput":
            metrics.min_link_throughput(links, sched.frame_length),
        "mean_latency_slots":
            None if mean_latency != mean_latency else mean_latency,
        "awake_fraction": sim.energy.awake_fraction(),
        "total_energy_mj": sim.energy.total_mj(),
        "link_losses": metrics.link_losses,
        "node_down_fraction": metrics.node_down_fraction(topo.n),
    }, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    from repro.analysis.sweeps import SweepRunner, SweepSpec
    from repro.service.runtime import RuntimeConfig

    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    try:
        specs = _read_jsonl(args.input, SweepSpec.from_dict)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not specs:
        print("error: no sweep specs in input", file=sys.stderr)
        return 2
    try:
        faults = _load_fault_plan(args.fault_plan)
        config = RuntimeConfig(jobs=args.jobs,
                               task_timeout=args.task_timeout,
                               max_retries=args.max_retries)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = []
    for spec in specs:
        runner = SweepRunner(spec, shard_size=args.shard_size,
                             checkpoint_dir=args.checkpoint_dir,
                             resume=args.resume, config=config,
                             faults=faults)
        results.append(runner.run())
    text = "".join(result.to_jsonl() for result in results)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
    rows = sum(len(r.rows) for r in results)
    errors = sum(1 for r in results for row in r.rows if "error" in row)
    shards = sum(len(r.shard_digests) for r in results)
    resumed = sum(r.resumed_shards for r in results)
    failed_shards = sum(1 for r in results
                        for rep in r.reports.values() if not rep.succeeded)
    summary = (f"swept {rows - errors}/{rows} points across {shards} shards "
               f"(jobs={args.jobs}, {resumed} resumed")
    if failed_shards:
        summary += f", {failed_shards} shards failed"
    print(summary + ")", file=sys.stderr)
    # Exit 3 = every point answered, but some shards were lost to worker
    # faults and degraded to error rows.
    return 3 if failed_shards else 0


def _cmd_families(args) -> int:
    from repro.analysis.tables import Table
    from repro.core.planner import candidate_sources

    table = Table("family", "frame_length", "tx_min", "tx_max",
                  title=f"Substrate families for N_{args.n}^{args.d}")
    for name, sched in candidate_sources(args.n, args.d):
        table.row(family=name, frame_length=sched.frame_length,
                  tx_min=min(sched.tx_counts), tx_max=max(sched.tx_counts))
    print(table.render())
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import certification_report
    from repro.core.serialization import load_schedule

    sched = load_schedule(args.schedule)
    report = certification_report(sched, args.d, exact_latency=args.latency,
                                  extras={"source file": args.schedule})
    text = report.to_markdown()
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0 if report.transparent else 1


def _cmd_experiment(args) -> int:
    from repro.analysis import experiments
    from repro.analysis.tables import Table

    names = [n for n in experiments.__all__ if n != "random_schedule"]
    if args.name == "list":
        print("\n".join(names))
        return 0
    if args.name not in names:
        print(f"error: unknown experiment {args.name!r}; "
              "run 'experiment list'", file=sys.stderr)
        return 2
    result = getattr(experiments, args.name)()
    table = result[0] if isinstance(result, tuple) else result
    if not isinstance(table, Table):  # pragma: no cover - all return Tables
        print(result)
        return 0
    print(table.render())
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "plan": _cmd_plan,
    "provision": _cmd_provision,
    "serve": _cmd_serve,
    "call": _cmd_call,
    "obs": _cmd_obs,
    "store": _cmd_store,
    "verify": _cmd_verify,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "families": _cmd_families,
    "report": _cmd_report,
    "experiment": _cmd_experiment,
}


def _setup_observability(args):
    """Install per-invocation observability from the global flags.

    Configures the ``repro.*`` logger tree (``--log-level`` defaults to
    ``info`` under ``--log-format json``, else ``warning``) and installs a
    fresh metrics registry and tracer as the process defaults, so every
    instrumented layer the command touches reports into this invocation's
    collectors.  Returns ``(registry, tracer)`` for export at exit.
    """
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        set_default_registry,
        set_default_tracer,
    )
    from repro.obs.logging import configure as configure_logging

    level = args.log_level or (
        "info" if args.log_format == "json" else "warning")
    configure_logging(level=level, format=args.log_format)
    registry = MetricsRegistry()
    set_default_registry(registry)
    tracer = Tracer()
    set_default_tracer(tracer)
    return registry, tracer


def _export_observability(args, registry, tracer) -> int:
    """Honour ``--metrics-out`` / ``--trace-out`` / ``--profile`` at exit.

    Returns 0, or 2 when an export path cannot be written.
    """
    try:
        if args.metrics_out:
            registry.write_json(args.metrics_out)
        if args.trace_out:
            tracer.to_jsonl(args.trace_out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.profile:
        print(tracer.summary_table(), file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    import contextlib

    args = build_parser().parse_args(argv)
    registry, tracer = _setup_observability(args)
    profile_cm = contextlib.nullcontext()
    if args.sample_profile:
        from repro.obs.profile import MAX_HZ, sample_profile

        if not 1 <= args.sample_hz <= MAX_HZ:
            print(f"error: --sample-hz must be in [1, {MAX_HZ}], "
                  f"got {args.sample_hz}", file=sys.stderr)
            return 2
        profile_cm = sample_profile(args.sample_hz, out=args.sample_profile)
    code = None
    try:
        with profile_cm:
            code = _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except OSError as exc:
        if code is None:  # the command itself failed: preserve the raise
            raise
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    export_code = _export_observability(args, registry, tracer)
    return code or export_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
