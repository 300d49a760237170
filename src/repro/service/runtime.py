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
  jitter is reproducible): inline through its ``run`` loop, in the pool
  by scheduling each retry ``delay`` seconds out;
* a dead pool (:class:`~concurrent.futures.process.BrokenProcessPool`) is
  **rebuilt** and its in-flight tasks re-enqueued; tasks repeatedly in
  flight at the moment of death are bisected — re-run alone — and
  **quarantined** when they kill a pool single-handedly;
* completed tasks are **checkpointed** by the caller's callback the
  moment they finish (sweeps write shard files), so an interrupted run
  resumes warm with zero re-evaluation of finished work.

Both paths keep one ledger of every task's attempts.  Each task ends in
exactly one terminal :class:`TaskReport` status — ``ok``, ``retried``,
``timed-out``, ``failed`` or ``quarantined`` — and :func:`execute_tasks`
always returns the survivors' results; it never raises because one task
misbehaved.
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

#: Bucket layout of the runtime's queue-wait and exec histograms, a
#: documented part of the metrics export.
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

#: Backoff between a task's retries: retry k waits
#: ``min(1.0, 0.05 * 2**(k-1))`` seconds times a seeded jitter.
_BACKOFF_BASE, _BACKOFF_CAP = 0.05, 1.0

#: Pool deaths a task must be in flight for before it is bisected (re-run
#: alone); a task that then kills its solo pool is quarantined.
_QUARANTINE_AFTER = 2


@dataclass(frozen=True)
class RuntimeConfig:
    """Tuning knobs of the fault-tolerant runtime.

    Attributes
    ----------
    jobs:
        Pool width; ``1`` runs every task inline (no processes).
    task_timeout:
        Per-attempt wall-clock budget in seconds of a pool worker;
        ``None`` waits forever, the pre-runtime behaviour.  It needs
        ``jobs > 1``: an inline task cannot be preempted.
    max_retries:
        How many *faulted* attempts (exceptions or timeouts) a task may
        burn beyond its first before it is finalized.  Pool deaths never
        charge this budget: bisection and quarantine deal with them.
    """

    jobs: int = 1
    task_timeout: float | None = None
    max_retries: int = 2

    def __post_init__(self) -> None:
        check_int(self.jobs, "jobs", minimum=1)
        check_int(self.max_retries, "max_retries", minimum=0)
        if self.task_timeout is not None:
            if self.task_timeout <= 0:
                raise ValueError("task_timeout must be positive or None")
            if self.jobs == 1:
                raise ValueError(
                    "task_timeout applies to pool workers and needs "
                    "jobs > 1: an inline shard cannot be preempted")

    def retry_policy(self, faults: FaultPlan | None) -> RetryPolicy:
        """The task backoff; a fault plan's seed, when given, seeds it."""
        return RetryPolicy(self.max_retries, _BACKOFF_BASE, _BACKOFF_CAP,
                           seed=0 if faults is None else faults.seed)


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
        The last fault's description; for unsuccessful statuses, the
        final failure.
    """

    digest: str
    status: str = STATUS_OK
    attempts: int = 0
    fault_count: int = 0
    error: str | None = None

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


# ----------------------------------------------------------------------
# bookkeeping
# ----------------------------------------------------------------------
class _Ledger:
    """The books of one :func:`execute_tasks` run, shared by both paths.

    It holds the result, the retry policy, the bound metric series and
    the checkpoint callback.  A task succeeds, is charged a fault, or is finalized here
    and nowhere else: each updates the task's report (status, attempts,
    fault count, error text), the counters, the checkpoint and the
    ``task_completed`` / ``task_retrying`` / ``task_failed`` events.
    """

    def __init__(self, tasks: dict[str, Any], registry: MetricsRegistry,
                 policy: RetryPolicy, faults: FaultPlan | None,
                 checkpoint) -> None:
        self.tasks = tasks
        self.result = RuntimeResult(
            reports={digest: TaskReport(digest) for digest in tasks})
        self.policy = policy
        self.faults = faults
        self.checkpoint = checkpoint
        self.charged: dict[str, int] = {}  # each task's own errors and timeouts
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

    def worker_evaluated(self) -> None:
        """Count one evaluation a pool worker completed.  The counter is
        registered on first use, so an inline run exports none."""
        self.registry.counter(
            "repro_runtime_worker_evaluations_total",
            "Evaluations completed inside pool workers.").inc()

    def fault(self, digest: str) -> str | None:
        """The injection for *digest*'s next attempt; None runs it clean."""
        if self.faults is None:
            return None
        return self.faults.worker_fault(digest,
                                        self.result.reports[digest].attempts)

    def succeed(self, digest: str, value: Any, duration: float) -> None:
        """Keep *digest*'s result, record its evaluation's *duration* and
        checkpoint it."""
        report = self.result.reports[digest]
        self.exec.observe(duration)
        self.result.plans[digest] = value
        report.status = STATUS_RETRIED if report.fault_count else STATUS_OK
        if self.checkpoint is not None:
            self.checkpoint(self.tasks[digest], value)
        _log.info("task_completed", extra={
            "digest": digest[:12], "status": report.status,
            "attempts": report.attempts, "duration_s": round(duration, 6)})

    def charge(self, digest: str, kind: str, error: str) -> bool:
        """One fault on the task's own account; True when it may retry.

        *kind* is ``"timeout"`` or ``"error"``.  Once the task's retry
        budget is spent it is finalized instead.
        """
        report = self.result.reports[digest]
        report.fault_count += 1
        self.charged[digest] = own = self.charged.get(digest, 0) + 1
        report.error = error
        if kind == "timeout":
            self.timeouts.inc()
        if own > self.policy.retries:
            self.finalize(digest, STATUS_TIMED_OUT if kind == "timeout"
                          else STATUS_FAILED, error)
            return False
        self.retries.inc()
        _log.warning("task_retrying", extra={
            "digest": digest[:12], "attempts": report.attempts,
            "fault_count": report.fault_count, "error": error})
        return True

    def finalize(self, digest: str, status: str, error: str) -> None:
        """End *digest* without a result."""
        report = self.result.reports[digest]
        report.status = status
        report.error = error
        if status == STATUS_QUARANTINED:
            self.quarantines.inc()
        _log.warning("task_failed", extra={
            "digest": digest[:12], "status": status,
            "attempts": report.attempts, "error": error})


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _worker(task, fault: str | None, hang_seconds: float,
            slow_seconds: float, evaluate) -> tuple[Any, float]:
    """Pool entry point: apply any injected fault, then evaluate.

    Module-level so the pool can pickle it by reference; *evaluate* must
    likewise be a module-level callable.  ``crash`` kills the process
    outright (the BrokenProcessPool path), ``hang`` sleeps long enough to
    trip the per-task timeout, ``slow`` adds latency, ``error`` raises —
    the four failure modes the runtime must absorb.

    Returns ``(result, duration_s)``, the evaluation timed worker-side;
    the parent's ledger records the duration and the evaluation in its
    own registry.
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
    start = perf_counter()
    value = evaluate(task)
    return value, perf_counter() - start


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
        default registry.  Pool workers' evaluations are recorded here
        from the durations they return, and the terminal-status counters
        reconcile exactly with :meth:`RuntimeResult.summary`.
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
    distinct: dict[str, object] = {}
    for task in tasks:
        distinct.setdefault(task.key(), task)
    ledger = _Ledger(distinct, registry if registry is not None
                     else default_registry(), config.retry_policy(faults),
                     faults, checkpoint)
    result = ledger.result
    if not distinct:
        return result
    _log.info("batch_started", extra={
        "tasks": len(distinct), "jobs": config.jobs,
        "task_timeout": config.task_timeout,
        "max_retries": config.max_retries})
    start = perf_counter()
    if config.jobs == 1:
        _run_inline(ledger, evaluate)
    else:
        _run_pool(ledger, config, evaluate)
    # Terminal statuses: totals reconcile with RuntimeResult.summary.
    for status, count in result.summary().items():
        ledger.completed.labels(status=status).inc(count)
    _log.info("batch_finished", extra={
        "tasks": len(distinct), "duration_s": round(perf_counter() - start, 6),
        "pool_rebuilds": result.pool_rebuilds,
        **{f"status_{k}": v for k, v in sorted(result.summary().items())}})
    return result


def _run_inline(ledger: _Ledger, evaluate) -> None:
    """The ``jobs=1`` path: task after task, each retried by the
    :meth:`~repro.faults.RetryPolicy.run` loop."""
    for digest, task in ledger.tasks.items():
        ledger.policy.run(digest, lambda _n: (
            None, _attempt_inline(ledger, digest, task, evaluate), None))


def _attempt_inline(ledger: _Ledger, digest: str, task, evaluate) -> bool:
    """One in-process attempt of *task*; True when it faulted and may retry.

    Inline, a ``crash`` injection degrades to an error (there is no
    process to kill) and a ``hang`` to an immediate timeout (nothing can
    preempt in-process execution).
    """
    fault = ledger.fault(digest)
    report = ledger.result.reports[digest]
    report.attempts += 1
    if fault == "hang":
        return ledger.charge(digest, "timeout", "injected hang (inline "
                             "mode times out immediately)")
    if fault in ("crash", "error"):
        return ledger.charge(digest, "error", f"injected {fault}")
    if fault == "slow":
        time.sleep(ledger.faults.slow_seconds)
    try:
        with span("runtime.task", digest=digest[:12],
                  attempts=report.attempts):
            start = perf_counter()
            value = evaluate(task)
            duration = perf_counter() - start
    except Exception as exc:
        return ledger.charge(digest, "error", f"{type(exc).__name__}: {exc}")
    ledger.succeed(digest, value, duration)
    return False


def _run_pool(ledger: _Ledger, config: RuntimeConfig, evaluate) -> None:
    """The ``jobs>1`` path: individual futures over a rebuildable pool."""
    distinct, result = ledger.tasks, ledger.result
    width = min(config.jobs, len(distinct))
    pool = ProcessPoolExecutor(max_workers=width)
    ready: deque[str] = deque(distinct)
    enqueued_at: dict[str, float] = {d: time.monotonic() for d in distinct}
    retry_at: dict[str, float] = {}
    solo: deque[str] = deque()          # bisection queue: run one at a time
    inflight: dict[Future, tuple[str, float]] = {}
    blame: dict[str, int] = {}          # pool deaths each task was in flight for
    solo_digest: str | None = None
    faults = ledger.faults
    hang_s = faults.hang_seconds if faults is not None else 0.0
    slow_s = faults.slow_seconds if faults is not None else 0.0

    def charge(digest: str, kind: str, error: str) -> None:
        """Charge the task's own fault; schedule its retry if it earns one."""
        if ledger.charge(digest, kind, error):
            retry_at[digest] = time.monotonic() + ledger.policy.delay(
                digest, ledger.charged[digest])

    def rebuild_pool() -> None:
        nonlocal pool
        result.pool_rebuilds += 1
        ledger.rebuilds.inc()
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
            result.reports[digest].fault_count += 1
            if blame[digest] >= _QUARANTINE_AFTER:
                if len(victims) == 1:
                    # Bisection ended: this task killed a pool all alone.
                    ledger.finalize(digest, STATUS_QUARANTINED,
                                    f"worker pool died {blame[digest]} "
                                    "times with this task in flight; "
                                    "quarantined")
                else:
                    solo.append(digest)  # suspicious: isolate and re-run
            else:
                ready.append(digest)
                enqueued_at[digest] = now
        solo_digest = None

    def submit(digest: str) -> bool:
        """Ship one attempt; False when the pool turned out to be dead."""
        try:
            future = pool.submit(_worker, distinct[digest],
                                 ledger.fault(digest), hang_s, slow_s,
                                 evaluate)
        except (BrokenProcessPool, RuntimeError):
            ready.appendleft(digest)
            return False
        result.reports[digest].attempts += 1
        now = time.monotonic()
        ledger.queue_wait.observe(
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
                if digest == solo_digest:
                    solo_digest = None
                if exc is None:
                    value, duration = future.result()
                    ledger.worker_evaluated()
                    # Worker processes have no ambient trace context: the
                    # span is recorded parent-side, back-dated by the
                    # worker's own timing.
                    default_tracer().record(
                        "runtime.task", duration, digest=digest[:12],
                        attempts=result.reports[digest].attempts)
                    ledger.succeed(digest, value, duration)
                else:
                    charge(digest, "error", f"{type(exc).__name__}: {exc}")
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
                    solo_digest = None  # a solo attempt runs alone
    except BaseException:
        _teardown_pool(pool)
        raise
    # Healthy finish: every worker is idle, so join them.  Leaving the
    # pool to close behind us lets interpreter exit race its manager
    # thread's wakeup pipe ("Exception ignored ... Bad file descriptor").
    pool.shutdown(wait=True)
