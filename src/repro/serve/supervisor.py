"""Supervised restarts for the schedule server (or any child process).

A single unsupervised ``repro serve`` process is a single point of
failure; the paper's own standard is self-stabilization after transient
faults.  :class:`Supervisor` closes the gap at the process level:

* a crashed child (nonzero exit, or killed by a signal) is **restarted**
  after the seeded exponential backoff of
  :class:`repro.faults.RetryPolicy`, keyed ``"supervisor"`` and indexed
  by the crash count in the window, so a chaos run's restart timeline is
  reproducible given the seed;
* a **crash loop** — more than ``max_restarts`` crashes inside
  ``restart_window_s`` — makes the supervisor give up and exit nonzero
  (exit code 3), because restarting a deterministically-broken server
  forever only hides the outage;
* a **clean child exit** (code 0 — e.g. the server finished a SIGTERM
  drain) ends supervision with exit 0;
* the ``--ready-file`` handshake is reused for observability: the file
  is removed before every (re)start, so its reappearance marks the
  moment the replacement child is accepting connections.

The supervisor owns no sockets and parses no HTTP — it watches one child
and keeps an auditable :attr:`Supervisor.events` timeline, which the
chaos acceptance suite asserts against.  ``repro serve --supervise``
wraps the stock serve command in one.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro._validation import check_int
from repro.faults import RetryPolicy
from repro.obs import context as _context
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, default_registry

__all__ = ["SupervisorConfig", "Supervisor", "CRASH_LOOP_EXIT_CODE"]

_log = get_logger("serve.supervisor")

#: Exit code of a supervisor that detected a crash loop and gave up.
CRASH_LOOP_EXIT_CODE = 3


@dataclass(frozen=True)
class SupervisorConfig:
    """Restart policy of one :class:`Supervisor`.

    Attributes
    ----------
    max_restarts:
        Crashes tolerated inside *restart_window_s* before the
        supervisor declares a crash loop and exits nonzero.
    restart_window_s:
        Sliding window (seconds) the crash-loop detector counts over.
    backoff_base_s, backoff_cap_s:
        The :class:`~repro.faults.RetryPolicy` restart backoff: crash
        ``k`` within the window waits ``policy.delay("supervisor", k)``.
    seed:
        Seed of the backoff jitter draws.
    """

    max_restarts: int = 5
    restart_window_s: float = 60.0
    backoff_base_s: float = 0.2
    backoff_cap_s: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_int(self.max_restarts, "max_restarts", minimum=0)
        check_int(self.seed, "seed", minimum=0)
        if self.restart_window_s <= 0:
            raise ValueError("restart_window_s must be positive")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff_base_s/backoff_cap_s must be >= 0")


class Supervisor:
    """Run *argv* as a child process; restart it when it crashes.

    :meth:`run` blocks until the child exits cleanly, the crash-loop
    bound trips, or :meth:`request_stop` ends supervision.  *clock*,
    *sleep* and *popen* are injectable so tests pin time and process
    creation.

    Attributes
    ----------
    policy:
        The restart backoff, built from the config.
    events:
        Auditable timeline of ``(kind, detail)`` tuples — ``start``
        (pid), ``exit`` (return code), ``backoff`` (seconds),
        ``crash-loop`` (crashes in window) — in order.
    trace_id:
        The trace id of the supervision run, set when :meth:`run`
        begins; every restart event logged inside the run is stamped
        with it (see :mod:`repro.obs.context`).
    """

    def __init__(self, argv: Sequence[str], *,
                 config: SupervisorConfig | None = None,
                 ready_file: str | Path | None = None,
                 registry: MetricsRegistry | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 popen: Callable[..., Any] = subprocess.Popen) -> None:
        """Supervise ``argv`` (a full command line, argv[0] included)."""
        self.argv = list(argv)
        if not self.argv:
            raise ValueError("supervisor needs a non-empty command line")
        self.config = config if config is not None else SupervisorConfig()
        self.ready_file = Path(ready_file) if ready_file is not None \
            else None
        self.registry = registry if registry is not None \
            else default_registry()
        self.policy = RetryPolicy(base=self.config.backoff_base_s,
                                  cap=self.config.backoff_cap_s,
                                  seed=self.config.seed)
        self._clock = clock
        self._sleep = sleep
        self._popen = popen
        self._child: Any | None = None
        self._stopping = False
        self._crash_times: list[float] = []
        self.restarts = 0
        self.events: list[tuple[str, Any]] = []
        self.trace_id: str | None = None
        self._starts = self.registry.counter(
            "repro_supervisor_starts_total",
            "Child processes launched by the supervisor.").labels()
        self._crashes = self.registry.counter(
            "repro_supervisor_crashes_total",
            "Child exits the supervisor counted as crashes.").labels()

    @property
    def child_pid(self) -> int | None:
        """PID of the currently running child, or None."""
        child = self._child
        return child.pid if child is not None else None

    def request_stop(self, sig: int = signal.SIGTERM) -> None:
        """End supervision: forward *sig* to the child, stop restarting.

        Signal-handler safe and idempotent.  The child is expected to
        exit on the signal (the serve child drains and exits 0);
        :meth:`run` then returns without restarting.
        """
        self._stopping = True
        child = self._child
        if child is not None and child.poll() is None:
            try:
                child.send_signal(sig)
            except (OSError, ValueError):  # pragma: no cover - child raced
                pass

    # ------------------------------------------------------------------
    # the supervision loop
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Supervise until clean exit, stop request, or crash loop.

        Returns the final exit code: the child's own code after a clean
        exit or stop request, :data:`CRASH_LOOP_EXIT_CODE` when the
        crash-loop bound trips.

        The whole supervision run shares one trace scope (adopted from
        any active context, opened fresh otherwise), so every restart
        event it logs carries the same ``trace_id`` — the id is kept on
        :attr:`trace_id` for callers that want to correlate externally.
        """
        with _context.trace_context() as ctx:
            self.trace_id = ctx.trace_id
            return self._run()

    def _run(self) -> int:
        while True:
            self._clear_ready_file()
            try:
                self._child = self._popen(self.argv)
            except OSError as exc:
                _log.error("supervisor_spawn_failed",
                           extra={"argv": self.argv[:3], "error": str(exc)})
                return CRASH_LOOP_EXIT_CODE
            self._starts.inc()
            self.events.append(("start", self._child.pid))
            _log.info("supervisor_child_started",
                      extra={"pid": self._child.pid,
                             "restarts": self.restarts})
            code = self._child.wait()
            self.events.append(("exit", code))
            if self._stopping or code == 0:
                _log.info("supervisor_done", extra={"code": code,
                                                    "restarts": self.restarts})
                return code if not self._stopping else max(code, 0)
            # A crash: count it against the sliding window.
            self._crashes.inc()
            now = self._clock()
            self._crash_times.append(now)
            window = self.config.restart_window_s
            self._crash_times = [t for t in self._crash_times
                                 if now - t <= window]
            crashes = len(self._crash_times)
            _log.warning("supervisor_child_crashed",
                         extra={"code": code, "crashes_in_window": crashes})
            if crashes > self.config.max_restarts:
                self.events.append(("crash-loop", crashes))
                _log.error("supervisor_crash_loop",
                           extra={"crashes_in_window": crashes,
                                  "window_s": window})
                return CRASH_LOOP_EXIT_CODE
            delay = self.policy.delay("supervisor", crashes)
            self.events.append(("backoff", delay))
            self.restarts += 1
            if delay > 0:
                self._sleep(delay)
            if self._stopping:  # a stop arrived during the backoff
                return 0

    def _clear_ready_file(self) -> None:
        """Drop the ready file so its reappearance marks the restart."""
        if self.ready_file is None:
            return
        try:
            self.ready_file.unlink()
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - unwritable ready dir
            _log.warning("supervisor_ready_file_unlink_failed",
                         extra={"path": str(self.ready_file)})


def serve_child_argv(args: Any) -> list[str]:
    """The child command line ``repro serve --supervise`` launches.

    Rebuilt explicitly from the parsed CLI namespace (never from
    ``sys.argv``) so supervisor-only flags can never leak into the
    child and start a fork bomb of supervisors.
    """
    argv = [sys.executable, "-m", "repro", "serve",
            "--host", args.host, "--port", str(args.port),
            "--jobs", str(args.jobs),
            "--max-inflight", str(args.max_inflight),
            "--deadline", str(args.deadline)]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    if args.no_cache:
        argv += ["--no-cache"]
    if args.ready_file:
        argv += ["--ready-file", args.ready_file]
    if getattr(args, "pid_file", None):
        argv += ["--pid-file", args.pid_file]
    if args.log_level:
        argv += ["--log-level", args.log_level]
    if args.log_format != "human":
        argv += ["--log-format", args.log_format]
    return argv
