"""Fault-tolerant execution layer for sweep shards.

A plain ``pool.map`` fan-out has the failure semantics of its weakest
worker: one crashed process aborts the whole batch and discards every
already-completed result.  This runtime, which runs the shards of
:mod:`repro.analysis.sweeps`, keeps its guarantees under adversity
instead, in the spirit of the paper:

* every distinct task is submitted as an **individual future**, so one
  task's fate never decides another's;
* a **per-task timeout** reclaims pool slots from hung workers (the pool
  is rebuilt, because a stuck process cannot be cancelled);
* task-level exceptions and timeouts are **retried** after the seeded
  exponential backoff of :class:`repro.faults.RetryPolicy` (even the
  jitter is reproducible);
* a dead pool (:class:`~concurrent.futures.process.BrokenProcessPool`) is
  **rebuilt** and its in-flight tasks re-enqueued; tasks repeatedly in
  flight at the moment of death are bisected — re-run alone — and
  **quarantined** when they kill a pool single-handedly;
* completed tasks are **checkpointed** by the caller's callback the
  moment they finish (sweeps write shard files), so an interrupted run
  resumes warm with zero re-evaluation of finished work.

Every task ends in exactly one terminal :class:`TaskReport` status —
``ok``, ``retried``, ``timed-out``, ``failed`` or ``quarantined`` — and
:func:`execute_tasks` always returns the survivors' results; it never
raises because one task misbehaved.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro._validation import check_int
from repro.faults import FaultPlan, RetryPolicy
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.tracing import default_tracer, span

__all__ = ["RuntimeConfig", "TaskReport", "RuntimeResult", "execute_tasks",
           "STATUS_OK", "STATUS_RETRIED", "STATUS_TIMED_OUT",
           "STATUS_FAILED", "STATUS_QUARANTINED", "TERMINAL_STATUSES"]

_log = get_logger("service.runtime")

#: Bucket layout shared by the parent- and worker-side duration
#: histograms, so worker snapshots merge bucket-for-bucket.
_DURATION_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                     0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

#: Task completed cleanly on its first attempt.
STATUS_OK = "ok"
#: Task completed after at least one fault (retry, crash recovery, ...).
STATUS_RETRIED = "retried"
#: Task's final attempt exceeded the per-task timeout.
STATUS_TIMED_OUT = "timed-out"
#: Task's final attempt raised; the exception text is in the report.
STATUS_FAILED = "failed"
#: Task repeatedly killed the worker pool and was isolated, then banned.
STATUS_QUARANTINED = "quarantined"

#: Every status a finished task can carry.
TERMINAL_STATUSES = (STATUS_OK, STATUS_RETRIED, STATUS_TIMED_OUT,
                     STATUS_FAILED, STATUS_QUARANTINED)

_TICK_SECONDS = 0.05  # pool poll granularity


@dataclass(frozen=True)
class RuntimeConfig:
    """Tuning knobs of the fault-tolerant runtime.

    Attributes
    ----------
    jobs:
        Pool width; ``1`` runs every task inline (no processes).
    task_timeout:
        Per-attempt wall-clock budget in seconds (pool mode); ``None``
        waits forever, the pre-runtime behaviour.
    max_retries:
        How many *faulted* attempts (exceptions or timeouts) a task may
        burn beyond its first before it is finalized.  Pool deaths never
        charge this budget: *quarantine_after* deals with them.
    backoff_base, backoff_cap:
        The :class:`~repro.faults.RetryPolicy` backoff between a task's
        retries.
    seed:
        Seed for the backoff jitter (a :class:`~repro.faults.FaultPlan`
        passed to the run seeds it instead).
    quarantine_after:
        How many pool deaths a task must be in flight for before it is
        bisected (re-run alone); a task that then kills its solo pool is
        quarantined.
    """

    jobs: int = 1
    task_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    seed: int = 0
    quarantine_after: int = 2

    def __post_init__(self) -> None:
        check_int(self.jobs, "jobs", minimum=1)
        check_int(self.max_retries, "max_retries", minimum=0)
        check_int(self.quarantine_after, "quarantine_after", minimum=1)
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive or None")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ValueError("need 0 <= backoff_base <= backoff_cap")

    def retry_policy(self, faults: FaultPlan | None) -> RetryPolicy:
        """The task backoff; a fault plan's seed, when given, wins."""
        return RetryPolicy(self.max_retries, self.backoff_base,
                           self.backoff_cap,
                           seed=self.seed if faults is None else faults.seed)


@dataclass
class TaskReport:
    """Per-task execution record returned alongside the results.

    Attributes
    ----------
    digest:
        The task's store-key digest (its identity).
    status:
        One of :data:`TERMINAL_STATUSES`.
    attempts:
        Times the task was submitted (including the successful one).
    fault_count:
        Faults this task met: its own exceptions and timeouts, and the
        pool deaths it was in flight for.  Only the first two charge the
        retry budget.
    error:
        Final failure description for unsuccessful statuses.
    duration_s:
        Wall-clock seconds of the *successful* attempt's evaluation
        (measured worker-side in pool mode); 0.0 when the task never
        completed.
    worker_metrics:
        The worker's metric-delta snapshot
        (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`) for the
        successful attempt, already merged into the parent registry by
        :func:`execute_tasks`; None in inline mode (the parent recorded
        directly).
    """

    digest: str
    status: str = STATUS_OK
    attempts: int = 0
    fault_count: int = 0
    error: str | None = None
    duration_s: float = 0.0
    worker_metrics: dict[str, Any] | None = None

    @property
    def succeeded(self) -> bool:
        """True when the task produced a result (``ok`` or ``retried``)."""
        return self.status in (STATUS_OK, STATUS_RETRIED)


@dataclass
class RuntimeResult:
    """Everything :func:`execute_tasks` knows when the dust settles.

    Attributes
    ----------
    plans:
        Task digest -> the evaluation's result for every task that
        completed (including after retries).
    reports:
        Digest -> :class:`TaskReport`, one per distinct task.
    pool_rebuilds:
        Times the process pool was torn down and rebuilt (crashes and
        reclaimed hangs).
    """

    plans: dict[str, Any] = field(default_factory=dict)
    reports: dict[str, TaskReport] = field(default_factory=dict)
    pool_rebuilds: int = 0

    @property
    def complete(self) -> bool:
        """True when every task succeeded (possibly after retries)."""
        return all(r.succeeded for r in self.reports.values())

    def summary(self) -> dict[str, int]:
        """Status -> count over all task reports (zero counts omitted)."""
        counts: dict[str, int] = {}
        for report in self.reports.values():
            counts[report.status] = counts.get(report.status, 0) + 1
        return counts

    def failures(self) -> dict[str, TaskReport]:
        """Digest -> report for every task that did not produce a result."""
        return {d: r for d, r in self.reports.items() if not r.succeeded}


# ----------------------------------------------------------------------
# instrumentation
# ----------------------------------------------------------------------
class _Instruments:
    """Bound metric series of one :func:`execute_tasks` run."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.completed = registry.counter(
            "repro_runtime_tasks_completed_total",
            "Runtime tasks (sweep shards) finished, by terminal status.")
        self.retries = registry.counter(
            "repro_runtime_retries_total",
            "Retry attempts scheduled after a charged fault.").labels()
        self.timeouts = registry.counter(
            "repro_runtime_timeouts_total",
            "Task attempts that exceeded the per-task timeout.").labels()
        self.quarantines = registry.counter(
            "repro_runtime_quarantines_total",
            "Tasks isolated after repeatedly killing the pool.").labels()
        self.rebuilds = registry.counter(
            "repro_runtime_pool_rebuilds_total",
            "Worker-pool teardowns and rebuilds (crashes + hangs).").labels()
        self.queue_wait = registry.histogram(
            "repro_runtime_task_queue_wait_seconds",
            "Seconds a task waited between becoming ready and being "
            "submitted to a worker.", buckets=_DURATION_BUCKETS).labels()
        self.exec = registry.histogram(
            "repro_runtime_task_exec_seconds",
            "Wall-clock seconds of one task evaluation (worker-side in "
            "pool mode).", buckets=_DURATION_BUCKETS).labels()

    def finish(self, result: RuntimeResult) -> None:
        """Record terminal statuses; totals reconcile with
        :meth:`RuntimeResult.summary` by construction."""
        for status, count in result.summary().items():
            self.completed.labels(status=status).inc(count)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _worker(task, fault: str | None, hang_seconds: float,
            slow_seconds: float, evaluate) -> tuple[str, Any, float, dict]:
    """Pool entry point: apply any injected fault, then evaluate.

    Module-level so the pool can pickle it by reference; *evaluate* must
    likewise be a module-level callable.  ``crash`` kills the process
    outright (the BrokenProcessPool path), ``hang`` sleeps long enough to
    trip the per-task timeout, ``slow`` adds latency, ``error`` raises —
    the four failure modes the runtime must absorb.

    Returns ``(digest, result, duration_s, metrics_snapshot)``: the
    evaluation is timed worker-side and recorded into a private
    registry whose snapshot the parent merges, so per-worker metric
    deltas survive the process boundary.
    """
    if fault == "crash":
        os._exit(13)
    if fault == "hang":
        time.sleep(hang_seconds)
    elif fault == "slow":
        time.sleep(slow_seconds)
    elif fault == "error":
        raise RuntimeError(
            f"injected worker error for task {task.key()[:12]}")
    registry = MetricsRegistry()
    start = perf_counter()
    value = evaluate(task)
    duration = perf_counter() - start
    registry.histogram(
        "repro_runtime_task_exec_seconds",
        "Wall-clock seconds of one task evaluation (worker-side in "
        "pool mode).", buckets=_DURATION_BUCKETS).observe(duration)
    registry.counter(
        "repro_runtime_worker_evaluations_total",
        "Evaluations completed inside pool workers.").inc()
    return task.key(), value, duration, registry.snapshot()


def _teardown_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on wedged or dead workers."""
    # shutdown() drops the pool's process table: read it first.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown of a broken pool
        pass
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------
def execute_tasks(tasks, *, evaluate, config: RuntimeConfig | None = None,
                  faults: FaultPlan | None = None,
                  registry: MetricsRegistry | None = None,
                  checkpoint=None) -> RuntimeResult:
    """Run every task to a terminal status; never raise for a task fault.

    Parameters
    ----------
    tasks:
        Iterable of task objects exposing ``key() -> str`` (their identity
        digest); duplicates are evaluated once.
    evaluate:
        The per-task evaluation callable, ``task -> result``; must be a
        *module-level* function so the pool can pickle it by reference
        (the sweep engine's is ``_evaluate_shard``).
    config:
        :class:`RuntimeConfig`; default runs inline with 2 retries.
    faults:
        Optional :class:`~repro.faults.FaultPlan` whose worker-side
        injections (crash/hang/slow/error) are applied per attempt — the
        hook the crash-path tests and chaos benchmarks use.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` collecting
        the runtime's counters and duration histograms (see
        docs/observability.md for the catalog); default: the process
        default registry.  Worker-side metric deltas are merged in and
        the terminal-status counters reconcile exactly with
        :meth:`RuntimeResult.summary`.
    checkpoint:
        Optional parent-side callable ``(task, result) -> None`` invoked
        the moment a task completes, so an interrupted run can resume
        warm.  Exceptions here propagate — losing checkpoints silently
        would defeat warm resume.

    Returns
    -------
    RuntimeResult
        Results for every survivor plus a :class:`TaskReport` per task.
    """
    config = config or RuntimeConfig()
    if checkpoint is None:
        def checkpoint(task, result):
            """No checkpoint: nothing is persisted."""
    instruments = _Instruments(registry if registry is not None
                               else default_registry())
    distinct: dict[str, object] = {}
    for task in tasks:
        distinct.setdefault(task.key(), task)
    result = RuntimeResult(
        reports={digest: TaskReport(digest) for digest in distinct})
    if not distinct:
        return result
    _log.info("batch_started", extra={
        "tasks": len(distinct), "jobs": config.jobs,
        "task_timeout": config.task_timeout,
        "max_retries": config.max_retries})
    start = perf_counter()
    if config.jobs == 1:
        _run_inline(distinct, config, checkpoint, faults, result,
                    instruments, evaluate)
    else:
        _run_pool(distinct, config, checkpoint, faults, result,
                  instruments, evaluate)
    instruments.finish(result)
    _log.info("batch_finished", extra={
        "tasks": len(distinct), "duration_s": round(perf_counter() - start, 6),
        "pool_rebuilds": result.pool_rebuilds,
        **{f"status_{k}": v for k, v in sorted(result.summary().items())}})
    return result


def _run_inline(distinct, config: RuntimeConfig, checkpoint,
                faults: FaultPlan | None, result: RuntimeResult,
                instruments: _Instruments, evaluate) -> None:
    """The ``jobs=1`` path: no pool, same statuses and retry policy.

    Inline, a ``crash`` injection degrades to an error (there is no
    process to kill) and a ``hang`` degrades to an immediate timeout
    charge (nothing can preempt in-process execution).
    """
    for digest, task in distinct.items():
        report = result.reports[digest]
        while True:
            fault = (faults.worker_fault(digest, report.attempts)
                     if faults is not None else None)
            report.attempts += 1
            kind = error = None
            if fault in ("crash", "error"):
                kind, error = "error", f"injected {fault}"
            elif fault == "hang":
                kind = "timeout"
            else:
                if fault == "slow" and faults is not None:
                    time.sleep(faults.slow_seconds)
                try:
                    with span("runtime.task", digest=digest[:12],
                              attempt=report.attempts):
                        start = perf_counter()
                        value = evaluate(task)
                        duration = perf_counter() - start
                except Exception as exc:
                    kind, error = "error", f"{type(exc).__name__}: {exc}"
            if kind is None:
                result.plans[digest] = value
                report.status = (STATUS_RETRIED if report.fault_count
                                 else STATUS_OK)
                report.duration_s = duration
                instruments.exec.observe(duration)
                checkpoint(task, value)
                _log.info("task_completed", extra={
                    "digest": digest[:12], "status": report.status,
                    "attempts": report.attempts,
                    "duration_s": round(duration, 6)})
                break
            report.fault_count += 1
            report.error = error
            if kind == "timeout":
                instruments.timeouts.inc()
            if report.fault_count > config.max_retries:
                report.status = (STATUS_TIMED_OUT if kind == "timeout"
                                 else STATUS_FAILED)
                if kind == "timeout":
                    report.error = "injected hang (inline mode times out " \
                                   "immediately)"
                _log.warning("task_failed", extra={
                    "digest": digest[:12], "status": report.status,
                    "attempts": report.attempts, "error": report.error})
                break
            instruments.retries.inc()
            _log.warning("task_retrying", extra={
                "digest": digest[:12], "attempts": report.attempts,
                "fault_count": report.fault_count, "error": error})
            time.sleep(config.retry_policy(faults).delay(
                digest, report.fault_count))


def _run_pool(distinct, config: RuntimeConfig, checkpoint,
              faults: FaultPlan | None, result: RuntimeResult,
              instruments: _Instruments, evaluate) -> None:
    """The ``jobs>1`` path: individual futures over a rebuildable pool."""
    width = min(config.jobs, len(distinct))
    pool = ProcessPoolExecutor(max_workers=width)
    ready: deque[str] = deque(distinct)
    enqueued_at: dict[str, float] = {d: time.monotonic() for d in distinct}
    retry_at: dict[str, float] = {}
    solo: deque[str] = deque()          # bisection queue: run one at a time
    inflight: dict[Future, tuple[str, float]] = {}
    blame: dict[str, int] = {}          # pool deaths each task was in flight for
    charged: dict[str, int] = {}        # each task's own errors and timeouts
    solo_digest: str | None = None
    hang_s = faults.hang_seconds if faults is not None else 0.0
    slow_s = faults.slow_seconds if faults is not None else 0.0

    def finalize(digest: str, status: str, error: str) -> None:
        report = result.reports[digest]
        report.status = status
        report.error = error
        if status == STATUS_QUARANTINED:
            instruments.quarantines.inc()
        _log.warning("task_failed", extra={
            "digest": digest[:12], "status": status,
            "attempts": report.attempts, "error": error})

    def succeed(digest: str, value: Any, duration: float,
                worker_snapshot: dict) -> None:
        nonlocal solo_digest
        report = result.reports[digest]
        result.plans[digest] = value
        report.status = STATUS_RETRIED if report.fault_count else STATUS_OK
        report.duration_s = duration
        report.worker_metrics = worker_snapshot
        instruments.registry.merge(worker_snapshot)
        checkpoint(distinct[digest], value)
        # Worker processes have no ambient trace context: the span is
        # recorded parent-side, back-dated by the worker's own timing.
        default_tracer().record("runtime.task", duration,
                                digest=digest[:12],
                                attempts=report.attempts)
        _log.info("task_completed", extra={
            "digest": digest[:12], "status": report.status,
            "attempts": report.attempts, "duration_s": round(duration, 6)})
        if solo_digest == digest:
            solo_digest = None

    def charge(digest: str, kind: str, error: str) -> None:
        """One fault on the task's own account: retry or finalize."""
        nonlocal solo_digest
        report = result.reports[digest]
        report.fault_count += 1
        charged[digest] = own = charged.get(digest, 0) + 1
        report.error = error
        if kind == "timeout":
            instruments.timeouts.inc()
        if solo_digest == digest:
            solo_digest = None
        if own > config.max_retries:
            finalize(digest, STATUS_TIMED_OUT if kind == "timeout"
                     else STATUS_FAILED, error)
        else:
            instruments.retries.inc()
            _log.warning("task_retrying", extra={
                "digest": digest[:12], "attempts": report.attempts,
                "fault_count": report.fault_count, "error": error})
            retry_at[digest] = time.monotonic() + config.retry_policy(
                faults).delay(digest, own)

    def rebuild_pool() -> None:
        nonlocal pool
        result.pool_rebuilds += 1
        instruments.rebuilds.inc()
        _log.warning("pool_rebuilt", extra={
            "rebuilds": result.pool_rebuilds, "width": width})
        _teardown_pool(pool)
        pool = ProcessPoolExecutor(max_workers=width)

    def handle_pool_death() -> None:
        """Blame the in-flight tasks, rebuild, re-enqueue or bisect."""
        nonlocal solo_digest
        victims = [digest for digest, _ in inflight.values()]
        inflight.clear()
        rebuild_pool()
        now = time.monotonic()
        for digest in victims:
            blame[digest] = blame.get(digest, 0) + 1
            report = result.reports[digest]
            report.fault_count += 1
            if blame[digest] >= config.quarantine_after:
                if len(victims) == 1:
                    # Bisection ended: this task killed a pool all alone.
                    finalize(digest, STATUS_QUARANTINED,
                             f"worker pool died {blame[digest]} times with "
                             "this task in flight; quarantined")
                else:
                    solo.append(digest)  # suspicious: isolate and re-run
            else:
                ready.append(digest)
                enqueued_at[digest] = now
        solo_digest = None

    def submit(digest: str) -> bool:
        """Ship one attempt; False when the pool turned out to be dead."""
        report = result.reports[digest]
        fault = (faults.worker_fault(digest, report.attempts)
                 if faults is not None else None)
        try:
            future = pool.submit(_worker, distinct[digest], fault,
                                 hang_s, slow_s, evaluate)
        except (BrokenProcessPool, RuntimeError):
            ready.appendleft(digest)
            return False
        report.attempts += 1
        now = time.monotonic()
        instruments.queue_wait.observe(
            max(0.0, now - enqueued_at.get(digest, now)))
        inflight[future] = (digest, now)
        return True

    try:
        while ready or solo or retry_at or inflight:
            now = time.monotonic()
            for digest, when in list(retry_at.items()):
                if when <= now:
                    del retry_at[digest]
                    ready.append(digest)
                    enqueued_at[digest] = now

            # Fill the pool — or, when the regular queue has drained,
            # bisect one suspect at a time.
            if solo_digest is None:
                dead = False
                while ready and len(inflight) < width and not dead:
                    dead = not submit(ready.popleft())
                if dead:
                    handle_pool_death()
                    continue
                if not inflight and not ready and not retry_at and solo:
                    solo_digest = solo.popleft()
                    if not submit(solo_digest):
                        handle_pool_death()
                        continue

            if not inflight:
                if retry_at:
                    time.sleep(max(0.0, min(retry_at.values())
                                   - time.monotonic()) + 0.001)
                continue

            done, _ = wait(list(inflight), timeout=_TICK_SECONDS,
                           return_when=FIRST_COMPLETED)
            pool_died = False
            for future in done:
                exc = future.exception()
                if isinstance(exc, BrokenProcessPool):
                    pool_died = True
                    continue  # every sibling future is poisoned too
                digest, _started = inflight.pop(future)
                if exc is None:
                    _key, value, duration, snapshot = future.result()
                    succeed(digest, value, duration, snapshot)
                else:
                    charge(digest, "error",
                           f"{type(exc).__name__}: {exc}")
            if pool_died:
                handle_pool_death()
                continue

            if config.task_timeout is not None:
                now = time.monotonic()
                overdue = [(future, digest, started)
                           for future, (digest, started) in inflight.items()
                           if now - started > config.task_timeout
                           and not future.done()]
                if overdue:
                    # A wedged worker cannot be cancelled; reclaim the
                    # whole pool and give the innocents a free re-run.
                    victims = dict(inflight.values())
                    inflight.clear()
                    rebuild_pool()
                    timed_out = {digest for _f, digest, _s in overdue}
                    for digest in victims:
                        if digest in timed_out:
                            charge(digest, "timeout",
                                   "attempt exceeded task_timeout="
                                   f"{config.task_timeout}s")
                        else:
                            ready.append(digest)
                            enqueued_at[digest] = now
    except BaseException:
        _teardown_pool(pool)
        raise
    # Healthy finish: every worker is idle, so join them.  Leaving the
    # pool to close behind us lets interpreter exit race its manager
    # thread's wakeup pipe ("Exception ignored ... Bad file descriptor").
    pool.shutdown(wait=True)
