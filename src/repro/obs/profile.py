"""A dependency-free sampling profiler: where does the CPU time go?

The missing feedback loop of the performance story: metrics say a
provision was slow, traces say *which* hop was slow, but only a profile
says which *code* was hot.  This module is a statistical sampler built
entirely on the stdlib — a daemon thread wakes ``hz`` times per second,
walks :func:`sys._current_frames` and counts one stack per live thread.
No interpreter hooks, no per-call overhead: the profiled code pays only
the GIL time of one frame walk per sample, which keeps the profiler
cheap enough to leave on in production (the budget asserted in
``benchmarks/bench_serve.py`` is <5% of the warm provision path at
100 hz).

Output is the **collapsed-stack** format flamegraph tooling consumes —
one line per distinct stack, root to leaf, semicolon-joined, followed by
its sample count::

    thread:MainThread;repro.cli.main;repro.cli._cmd_provision 42

Every stack is rooted at ``thread:<name>``, so a profile of the serve
tier separates the event loop from the ``repro-serve-plan`` worker pool
at a glance.  :meth:`Profile.top_table` renders the self/cumulative
top-N view for terminals; :func:`parse_collapsed` round-trips the file
format (CI uses it to assert profiles stay parseable).

Three entry points, one mechanism:

* :func:`sample_profile` — a context manager around any code block;
* the global ``--sample-profile PATH`` CLI flag — profiles the whole
  command (``provision``, ``sweep``, ``simulate``, any of them);
* ``GET /profilez?seconds=N`` on the schedule server — profiles the
  live worker pool on demand (see :mod:`repro.serve.server`).

Sampling is in-process only: a ``--jobs N`` process pool's children are
not visible to the parent's sampler (the parent's profile shows its own
wait frames), which is exactly what you want when diagnosing the
coordinator and is documented in docs/observability.md.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, sleep
from typing import Any, Iterator

__all__ = ["SamplingProfiler", "Profile", "sample_profile",
           "parse_collapsed", "looks_like_collapsed", "profile_wait",
           "DEFAULT_HZ", "MAX_HZ", "MAX_STACK_DEPTH"]

#: Default sampling frequency (samples per second).
DEFAULT_HZ = 100
#: Upper bound on the sampling frequency; beyond this the sampler would
#: spend more time walking frames than the program spends running.
MAX_HZ = 1000
#: Frames kept per stack (leaf-most beyond this depth are dropped and
#: the stack is rooted at a ``...`` marker so truncation stays visible).
MAX_STACK_DEPTH = 128


def _frame_label(frame: Any) -> str:
    """``module.qualname`` label of one frame (collapsed-stack token).

    Semicolons separate stack entries in the collapsed format, so they
    (and whitespace) are scrubbed out of the label.
    """
    module = frame.f_globals.get("__name__", "?")
    name = frame.f_code.co_name
    return f"{module}.{name}".replace(";", ":").replace(" ", "_")


def _walk_stack(frame: Any) -> list[str]:
    """Root-to-leaf frame labels of *frame*'s stack, depth-bounded."""
    labels: list[str] = []
    while frame is not None and len(labels) < MAX_STACK_DEPTH:
        labels.append(_frame_label(frame))
        frame = frame.f_back
    if frame is not None:
        labels.append("...")
    labels.reverse()
    return labels


class Profile:
    """The aggregated result of one profiling session.

    ``counts`` maps each distinct stack — a root-to-leaf tuple of frame
    labels, rooted at ``thread:<name>`` — to its sample count.
    ``samples`` is the total number of per-thread stacks recorded;
    ``passes`` the number of sampler wakeups; ``duration_s`` the
    wall-clock span of the session.
    """

    def __init__(self, counts: Counter[tuple[str, ...]] | None = None, *,
                 samples: int = 0, passes: int = 0,
                 duration_s: float = 0.0, hz: int = DEFAULT_HZ):
        self.counts: Counter[tuple[str, ...]] = counts \
            if counts is not None else Counter()
        self.samples = samples
        self.passes = passes
        self.duration_s = duration_s
        self.hz = hz

    def collapsed(self) -> str:
        """The collapsed-stack text: ``frame;frame;frame count`` lines.

        Lines are sorted (stack order) so two profiles of the same run
        diff cleanly; the output feeds flamegraph tooling directly.
        """
        lines = [f"{';'.join(stack)} {count}"
                 for stack, count in sorted(self.counts.items())]
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str | Path) -> None:
        """Write :meth:`collapsed` to *path* (the ``--sample-profile``
        sidecar)."""
        Path(path).write_text(self.collapsed())

    def top(self, n: int = 15) -> list[dict[str, Any]]:
        """The top-*n* frames by self samples.

        ``self`` counts samples where the frame was the leaf; ``cum``
        counts samples where it appeared anywhere on the stack (counted
        once per stack even for recursive frames).
        """
        self_counts: Counter[str] = Counter()
        cum_counts: Counter[str] = Counter()
        for stack, count in self.counts.items():
            self_counts[stack[-1]] += count
            for label in set(stack):
                cum_counts[label] += count
        total = max(1, self.samples)
        rows = [{"frame": label, "self": self_counts[label],
                 "cum": cum_counts[label],
                 "self_pct": 100.0 * self_counts[label] / total,
                 "cum_pct": 100.0 * cum_counts[label] / total}
                for label in self_counts]
        rows.sort(key=lambda r: (-r["self"], -r["cum"], r["frame"]))
        return rows[:n]

    def top_table(self, n: int = 15) -> str:
        """The :meth:`top` view rendered as an aligned text table."""
        rows = self.top(n)
        header = (f"{'self%':>7} {'cum%':>7} {'self':>7} {'cum':>7}  frame\n"
                  f"{self.samples} samples over {self.duration_s:.2f}s "
                  f"at {self.hz} hz ({self.passes} passes)\n")
        body = "".join(
            f"{r['self_pct']:>6.1f}% {r['cum_pct']:>6.1f}% "
            f"{r['self']:>7} {r['cum']:>7}  {r['frame']}\n" for r in rows)
        return header + body


class SamplingProfiler:
    """Sample every live thread's stack ``hz`` times per second.

    ``start()`` launches a daemon sampler thread; ``stop()`` joins it —
    taking one final synchronous sample first, so even a session shorter
    than one period yields a non-empty profile — and returns the
    :class:`Profile`.  A profiler instance is single-use.
    """

    def __init__(self, hz: int = DEFAULT_HZ):
        if not isinstance(hz, int) or isinstance(hz, bool):
            raise TypeError(f"hz must be an int, got {type(hz).__name__}")
        if not 1 <= hz <= MAX_HZ:
            raise ValueError(f"hz must be in [1, {MAX_HZ}], got {hz}")
        self.hz = hz
        self._counts: Counter[tuple[str, ...]] = Counter()
        self._samples = 0
        self._passes = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None
        self._finished: Profile | None = None

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample_once(self) -> int:
        """Walk every live thread's stack once; returns stacks recorded.

        The sampler's own thread is skipped (profiling the profiler is
        pure noise) — but only that thread, so the final synchronous
        pass :meth:`stop` takes from the caller's thread still records
        the caller.  Public so the overhead benchmark can measure the
        cost of exactly one pass.
        """
        exclude = {self._thread.ident} if self._thread is not None else set()
        names = {t.ident: t.name for t in threading.enumerate()}
        recorded = 0
        for ident, frame in sys._current_frames().items():
            if ident in exclude:
                continue
            root = f"thread:{names.get(ident, ident)}"
            stack = (root, *_walk_stack(frame))
            self._counts[stack] += 1
            recorded += 1
        self._samples += recorded
        self._passes += 1
        return recorded

    def _run(self) -> None:
        period = 1.0 / self.hz
        next_at = perf_counter() + period
        while not self._stop.wait(max(0.0, next_at - perf_counter())):
            self.sample_once()
            next_at += period
            # A long GC pause or a held GIL can put us far behind;
            # re-anchor instead of bursting to catch up.
            now = perf_counter()
            if next_at < now:
                next_at = now + period

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        """Launch the sampler thread (idempotence is an error)."""
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._started_at = perf_counter()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-profiler")
        self._thread.start()
        return self

    def stop(self) -> Profile:
        """Stop sampling and return the :class:`Profile` (idempotent)."""
        if self._finished is not None:
            return self._finished
        if self._thread is None:
            raise RuntimeError("profiler never started")
        self._stop.set()
        self._thread.join(timeout=5.0)
        # One last synchronous pass from the caller's thread: the
        # sampler thread is gone, so this records every *other* thread —
        # guaranteeing even sub-period sessions produce output.
        self.sample_once()
        duration = perf_counter() - (self._started_at or perf_counter())
        self._finished = Profile(self._counts, samples=self._samples,
                                 passes=self._passes, duration_s=duration,
                                 hz=self.hz)
        return self._finished


@contextmanager
def sample_profile(hz: int = DEFAULT_HZ, *,
                   out: str | Path | None = None) -> Iterator[SamplingProfiler]:
    """Profile the enclosed block; optionally write the collapsed file.

    Yields the running :class:`SamplingProfiler`; after the block,
    ``profiler.stop()`` has been called and the profile is available as
    ``profiler.stop()`` (idempotent).  With *out*, the collapsed-stack
    text is written there even when the block raises — a crashed run's
    profile is the one you want most.
    """
    profiler = SamplingProfiler(hz=hz).start()
    try:
        yield profiler
    finally:
        profile = profiler.stop()
        if out is not None:
            profile.write(out)


def parse_collapsed(text: str) -> Counter[tuple[str, ...]]:
    """Parse collapsed-stack text back into a stack counter.

    The inverse of :meth:`Profile.collapsed`; raises ``ValueError`` on a
    line that is not ``stack count``.  CI parses every profile artefact
    through this to pin the format.
    """
    counts: Counter[tuple[str, ...]] = Counter()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        stack_text, _, count_text = line.rpartition(" ")
        if not stack_text or not count_text.isdigit():
            raise ValueError(f"line {lineno}: not a collapsed-stack line: "
                             f"{line!r}")
        counts[tuple(stack_text.split(";"))] += int(count_text)
    return counts


def looks_like_collapsed(text: str) -> bool:
    """Whether *text* parses as non-empty collapsed-stack output.

    A line opening with ``{`` is a JSON record whatever it ends with, and
    a line's count must end it: ``a;b 3 `` is not a profile.
    ``tools/validate_trace.py`` uses this to skip profile sidecars that
    arrive via the same artefact glob as span dumps.
    """
    if any(line.lstrip().startswith("{") for line in text.splitlines()):
        return False
    try:
        return bool(parse_collapsed(text))
    except ValueError:
        return False


def profile_wait(seconds: float, hz: int = DEFAULT_HZ) -> Profile:
    """Profile every thread for *seconds* from a blocking caller.

    The synchronous convenience used by tests and tools; the serve
    tier's ``/profilez`` awaits on the event loop instead and drives
    the profiler directly.
    """
    profiler = SamplingProfiler(hz=hz).start()
    sleep(max(0.0, seconds))
    return profiler.stop()
