"""The four workloads of the end-to-end benchmark and their checks.

Every workload drives the real program from outside — ``repro serve`` as
a subprocess answering HTTP, or the ``repro sweep`` CLI — and feeds it
only inputs generated here from the workload seed.  The load generator is
this process: at most two threads and two connections, each thread
pinned to the last CPU.  Under serve-hot's load the generator keeps
that CPU busy, so there the server is pinned to the other CPUs and never
competes with it; elsewhere the generator idles and the program's
processes are not pinned.

Two seeds must ask the program for the same amount of work, or runs on
different seeds would not be comparable.  So the seed draws the serve-hot
*traffic* (arrival times, Zipf picks) over a fixed catalog, the
serve-cold classes from strata of about equal cold cost, and the sweep
seeds (random topologies) of a fixed grid.

The end-to-end time metrics are scaled to the reference speed of
:mod:`speed`, whose probes sample the host while the workload runs; the
measured values are kept as ``raw_*`` diagnostics.

=================  ====================================================
``serve-hot``      a fixed 16-class catalog, pre-filled; then an open
                   loop of Poisson arrivals at 150 req/s (diagnostic)
                   and a two-connection closed loop (latency and
                   capacity), classes drawn Zipf(1.1).  Every answer is
                   an in-memory store hit.
``serve-cold``     distinct cold classes over two connections (phase A:
                   planning, construction, Theorem 2 scoring, store
                   writes), then a drain, a restart on the same cache and
                   a one-connection replay (phase B: store disk reads).
``sweep-saturated``  saturated-traffic simulation sweeps with the Figure
                   2 construction: the vectorized kernel.
``sweep-queued``   Poisson and sensing traffic on the bare substrates:
                   the scalar slot loop, no construction.
=================  ====================================================
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import layers
import speed

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent

# The serve-hot catalog as (n, D, duty budget), most popular first.  Sizes
# are interleaved so the popular head holds small and large schedules
# alike (answers of 0.5 to 18 KiB); duty budgets span 0.25 to 0.6.
HOT_CATALOG = ((24, 3, "10/24"), (12, 2, "6/12"), (36, 4, "13/36"),
               (18, 5, "8/18"), (44, 2, "20/44"), (30, 3, "12/30"),
               (10, 4, "4/10"), (48, 5, "20/48"), (20, 2, "8/20"),
               (40, 3, "16/40"), (14, 4, "6/14"), (32, 5, "14/32"),
               (28, 2, "12/28"), (46, 3, "20/46"), (22, 4, "9/22"),
               (42, 5, "18/42"))
# (smallest n, largest n, D) strata of serve-cold, one per degree; a class
# takes an even n in the band and keeps 35-60% of the slots awake.  The
# bands were measured so that every class costs a cold in-process plan
# about 0.1-0.25 s (cost grows with n, and falls with D), so the seed
# changes which classes are asked for but not how much work they are.
# Each stratum holds at least 35 classes, more rounds than a window
# completes.
COLD_STRATA = ((20, 30, 2), (24, 32, 3), (24, 32, 4), (28, 36, 5))
HOT_RATE = 150.0        # open-loop arrivals per second
ZIPF_S = 1.1
LATENCY_LIMIT_MS = 50.0  # closed-loop p99 limit for the capacity figure
Interval = tuple  # (start, end) in perf_counter seconds

# The grid expands row-major and the pool takes shards in that order, so
# n runs largest first: the two workers then end on small shards together.
# In ascending order the last shard held the largest points, and which
# worker took it decided an invocation's wall time.
SATURATED = {"families": ["tdma", "polynomial", "projective", "mols"],
             "ns": [100, 64, 36, 16], "ds": [2, 4],
             "traffics": ["saturated"], "frames": 40,
             "alpha_t": 2, "alpha_r": 6}
QUEUED = {"families": ["polynomial", "projective", "mols"],
          "ns": [100, 64, 36, 16], "ds": [2, 4],
          "traffics": ["poisson", "sensing"], "frames": 8,
          "rate": 0.02, "period": 50}


@dataclass(frozen=True)
class Scale:
    """Input sizes: the full benchmark, or the seconds-long smoke run."""

    setups: int
    hot_catalog: tuple
    cold_strata: tuple
    sample: int              # classes checked against the reference
    sweep_axes: dict         # overrides of the sweep grid axes
    seeds_per_job: dict      # sweep seeds per CLI invocation, by workload


# One seed per sweep invocation keeps an invocation to 1-4 s, so a window
# holds enough of them for their median to be steady.
FULL = Scale(setups=5, hot_catalog=HOT_CATALOG, cold_strata=COLD_STRATA,
             sample=8, sweep_axes={},
             seeds_per_job={"sweep-saturated": 1, "sweep-queued": 1})
# The smoke sweeps use the largest n, so that the points and not the
# CLI's fixed costs make up the traced time the smoke test attributes.
SMOKE = Scale(setups=1, hot_catalog=((12, 2, "6/12"), (10, 4, "4/10"),
                                     (14, 3, "6/14"), (16, 2, "8/16")),
              cold_strata=((10, 16, 2), (12, 18, 3)), sample=2,
              sweep_axes={"ns": [100], "ds": [4]},
              seeds_per_job={"sweep-saturated": 1, "sweep-queued": 1})


# ----------------------------------------------------------------------
# run state and processes
# ----------------------------------------------------------------------
class Bench:
    """One run: work directory, child processes and outcome counts."""

    def __init__(self, workdir: Path, seconds: float, scale: Scale) -> None:
        self.workdir = workdir
        self.seconds = seconds
        self.scale = scale
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ,
                        PYTHONPATH=os.pathsep.join(p for p in paths if p))
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.problems: list[str] = []
        self._procs: list[subprocess.Popen] = []
        self._probes: dict[int, tuple[subprocess.Popen, Path]] = {}
        self._names = itertools.count()
        cpus = sorted(os.sched_getaffinity(0))
        self.generator_cpu = cpus[-1]
        self.server_cpus = set(cpus[:-1] or cpus)

    def path(self, stem: str) -> Path:
        """A fresh path under the work directory."""
        return self.workdir / f"{stem}-{next(self._names)}"

    def start_probes(self) -> None:
        """Start one :mod:`speed` probe per CPU and wait for the first
        sample of each."""
        for cpu in sorted(os.sched_getaffinity(0)):
            out = self.path(f"speed{cpu}")
            proc = self._popen([sys.executable, str(HERE / "speed.py"),
                                "--cpu", str(cpu), "--out", str(out)])
            self._probes[cpu] = (proc, out)
        deadline = perf_counter() + 30
        for proc, out in self._probes.values():
            while not (out.exists() and out.stat().st_size):
                if proc.poll() is not None or perf_counter() > deadline:
                    raise RuntimeError("a speed probe did not start")
                time.sleep(0.01)

    def host_speed(self, cpus: set[int] | None = None) -> speed.Speed:
        """The samples so far of the probes on *cpus* (default: all);
        every probe must still be running."""
        for proc, _ in self._probes.values():
            if proc.poll() is not None:
                raise RuntimeError(f"a speed probe exited {proc.returncode}")
        return speed.Speed({cpu: out for cpu, (_, out)
                            in self._probes.items()}, cpus)

    def spawn(self, args: list[str], spans: Path | None = None,
              cpus: set[int] | None = None) -> subprocess.Popen:
        """Start the program with *args*, on *cpus* when given; traced
        through the launcher when *spans* names the span file to write."""
        if spans is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, str(HERE / "layers.py"),
                    "--spans-out", str(spans), "--", *args]
        return self._popen(argv, cpus)

    def _popen(self, argv: list[str], cpus: set[int] | None = None
               ) -> subprocess.Popen:
        log = open(self.path("log"), "wb")
        mask = os.sched_getaffinity(0)
        try:
            # The child inherits the spawning thread's CPU mask.
            os.sched_setaffinity(0, cpus or mask)
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=log)
        finally:
            os.sched_setaffinity(0, mask)
            log.close()
        self._procs.append(proc)
        return proc

    def wait(self, proc: subprocess.Popen, timeout: float = 170.0
             ) -> tuple[int, float]:
        """Reap *proc*; returns ``(exit code, peak RSS in MB)``.

        ``wait4`` reports the peak resident set of the process and of the
        children it reaped itself (the sweep's pool workers).
        """
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._procs.remove(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def close(self) -> None:
        """Stop and reap every process still running."""
        for proc in list(self._procs):
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)
            self._procs.remove(proc)

    def check(self, ok: bool, what: str) -> None:
        """Record one correctness check."""
        self.checks += 1
        if not ok:
            self.problems.append(what)

    def count(self, attempted: int, failed: int) -> None:
        """Record operations sent to the program and how many failed."""
        self.attempted += attempted
        self.failed += failed


def http(host: str, port: int, method: str, path: str, body: bytes = b"",
         timeout: float = 120.0) -> tuple[int, bytes]:
    """One HTTP/1.1 exchange; the server closes every connection."""
    head = (f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
    chunks = []
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head + body)
        while chunk := sock.recv(1 << 16):
            chunks.append(chunk)
    status_line, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    return int(status_line.split(None, 2)[1]), payload


class Server:
    """A ``repro serve`` process on an ephemeral port.

    A *traced* server runs under the launcher of :mod:`layers`; every
    start writes its spans to a new file in :attr:`span_files`.  *cpus*
    pins the process.
    """

    def __init__(self, bench: Bench, cache_dir: Path, traced: bool = False,
                 cpus: set[int] | None = None) -> None:
        self.bench = bench
        self.cache_dir = cache_dir
        self.traced = traced
        self.cpus = cpus
        self.span_files: list[Path] = []
        self.proc: subprocess.Popen | None = None
        self.host, self.port = "127.0.0.1", 0

    def start(self) -> Interval:
        """Spawn and wait for the ready file; returns when each was."""
        ready = self.bench.path("ready")
        spans = None
        if self.traced:
            spans = self.bench.path("spans")
            self.span_files.append(spans)
        started = perf_counter()
        self.proc = self.bench.spawn(
            ["serve", "--port", "0", "--jobs", "2", "--cache-dir",
             str(self.cache_dir), "--ready-file", str(ready)], spans,
            self.cpus)
        while not ready.exists():
            if self.proc.poll() is not None:
                raise RuntimeError("repro serve exited before it was ready")
            if perf_counter() - started > 60:
                raise RuntimeError("repro serve not ready within 60 s")
            time.sleep(0.002)
        interval = (started, perf_counter())
        host, port = ready.read_text().split()
        self.host, self.port = host, int(port)
        # `repro serve` writes the ready file before it installs its
        # SIGTERM handler, and a SIGTERM in between kills it undrained.
        # The handler is in place once the event loop answers anything.
        status, _ = http(self.host, self.port, "GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return interval

    def snapshot(self) -> dict[str, Any]:
        """The server's own ``/metrics.json`` registry snapshot."""
        status, body = http(self.host, self.port, "GET", "/metrics.json")
        if status != 200:
            raise RuntimeError(f"/metrics.json answered {status}")
        return json.loads(body)

    def stop(self) -> float:
        """SIGTERM-drain the server; returns its peak RSS in MB."""
        self.proc.send_signal(signal.SIGTERM)
        code, rss = self.bench.wait(self.proc, timeout=60)
        self.bench.check(code == 0, f"repro serve drained with exit {code}")
        return rss

    def spans(self) -> list[dict[str, Any]]:
        """Every span the traced server's processes wrote."""
        return [s for path in self.span_files for s in layers.read_jsonl(path)]


def spawn_times(bench: Bench, spawns: int, cpus: set[int] | None = None
                ) -> list[Interval]:
    """Spawn-to-ready intervals of *spawns* servers, each on a fresh
    cache and stopped again.  Runs take them after the measurement as
    well as before it, so one slow moment of the host does not decide
    set-up."""
    times = []
    for _ in range(spawns):
        server = Server(bench, bench.path("cache"), cpus=cpus)
        times.append(server.start())
        server.stop()
    return times


def scaled_metrics(bench: Bench, setups: list[Interval],
                   ops: list[Interval], done: int, busy: list[Interval],
                   cpus: set[int] | None = None) -> dict[str, Any]:
    """``setup_s``, ``p50_ms`` and ``throughput_per_s`` at the reference
    speed of the program's *cpus* (default: all): the median set-up, the
    median operation, and *done* operations over the time spent in
    *busy*.  The measured values are kept as ``raw_*`` diagnostics, with
    the speed factor of the whole run."""
    host = bench.host_speed(cpus)

    def figures(scale: Callable[[float, float], float]) -> dict[str, float]:
        return {"setup_s": statistics.median(scale(*i) for i in setups),
                "p50_ms": statistics.median(scale(*i) for i in ops) * 1e3,
                "throughput_per_s": done / sum(scale(*i) for i in busy)}

    raw = figures(lambda start, end: end - start)
    return {"metrics": figures(host.scale),
            "diagnostics": {**{f"raw_{k}": v for k, v in raw.items()},
                            "speed_factor":
                                host.factor(busy[0][0], busy[-1][1])}}


# ----------------------------------------------------------------------
# serve inputs, answers and the load generator
# ----------------------------------------------------------------------
Key = tuple  # (n, D, max_duty as an exact "k/n" string)


def cold_rounds(seed: int, strata: tuple) -> list[list[Key]]:
    """Serve-cold classes as rounds holding one class of every stratum.

    No two classes share ``(n, D, awake slots)``, so every class is a
    planner cold miss with no evaluation another class already stored.
    """
    rng = random.Random(f"serve-cold/{seed}")
    pools = []
    for lo, hi, d in strata:
        pool = [(n, d, f"{k}/{n}") for n in range(lo, hi + 1, 2)
                for k in range(math.ceil(0.35 * n), (3 * n) // 5 + 1)]
        rng.shuffle(pool)
        pools.append(pool)
    rounds = [list(keys) for keys in zip(*pools)]
    for keys in rounds:
        rng.shuffle(keys)
    return rounds


class Answers:
    """The first answer per class; every later response must repeat it.

    Responses are compared as parsed documents with ``from_cache`` read
    as false, so a cold answer, a memory hit and a disk read of one class
    must carry the same result however the server formats its JSON.
    """

    def __init__(self) -> None:
        self.first: dict[Key, dict[str, Any]] = {}
        self.bytes = 0
        self.count = 0
        self._lock = threading.Lock()

    def record(self, key: Key, trace_id: str, status: int,
               body: bytes) -> bool:
        """Note one response; False unless it is a success echoing
        *trace_id* and carrying the class's answer."""
        try:
            doc = json.loads(body)
        except ValueError:
            return False
        if status != 200 or not isinstance(doc, dict) \
                or doc.get("ok") is not True \
                or doc.get("trace_id") != trace_id \
                or not isinstance(result := doc.get("result"), dict):
            return False
        result["from_cache"] = False
        with self._lock:
            first = self.first.setdefault(key, result)
            self.bytes += len(body)
            self.count += 1
        return first == result


@dataclass
class Sample:
    """One request as the load generator saw it."""

    key: Key
    due: float
    start: float
    end: float
    ok: bool


class Client:
    """The load generator: two threads, two connections, last CPU."""

    def __init__(self, server: Server, answers: Answers) -> None:
        self.server = server
        self.answers = answers
        self.spans: list[dict[str, Any]] | None = None
        self._ids = itertools.count()
        self._cpu = server.bench.generator_cpu

    def _pin(self) -> None:
        os.sched_setaffinity(0, {self._cpu})  # this thread only

    def send(self, key: Key, due: float | None = None) -> Sample:
        """One ``POST /plan`` with the schedule included."""
        trace_id = f"e2e-{next(self._ids)}"
        n, d, duty = key
        body = json.dumps({"n": n, "d": d, "max_duty": duty,
                           "include_schedule": True,
                           "trace_id": trace_id}).encode()
        start = perf_counter()
        try:
            status, payload = http(self.server.host, self.server.port,
                                   "POST", "/plan", body)
        except OSError:
            status, payload = 0, b""
        end = perf_counter()
        if self.spans is not None:
            self.spans.append({"id": f"client-{trace_id}", "parent": None,
                               "name": "serve.client.request",
                               "start": start, "end": end, "op": trace_id})
        return Sample(key, start if due is None else due, start, end,
                      self.answers.record(key, trace_id, status, payload))

    def closed_loop(self, feeds: list[Callable[[], Key | None]]
                    ) -> list[Sample]:
        """One thread per feed, each sending its next key on completion."""
        def drive(feed):
            self._pin()
            out = []
            while (key := feed()) is not None:
                out.append(self.send(key))
            return out

        with ThreadPoolExecutor(len(feeds)) as pool:
            futures = [pool.submit(drive, feed) for feed in feeds]
            return [s for f in futures for s in f.result()]

    def open_loop(self, arrivals: list[tuple[float, Key]]) -> list[Sample]:
        """Send each key at its due offset, two connections at most;
        a late send keeps its due time, so stalls count as latency."""
        lock = threading.Lock()
        order = iter(range(len(arrivals)))
        samples: list[Sample | None] = [None] * len(arrivals)
        origin = perf_counter() + 0.05

        def drive():
            self._pin()
            while True:
                with lock:
                    i = next(order, None)
                if i is None:
                    return
                due = origin + arrivals[i][0]
                if (delay := due - perf_counter()) > 0:
                    time.sleep(delay)
                samples[i] = self.send(arrivals[i][1], due)

        with ThreadPoolExecutor(2) as pool:
            for f in [pool.submit(drive), pool.submit(drive)]:
                f.result()
        return samples


def _shared(keys: list[Key]) -> Callable[[], Key | None]:
    """A thread-safe feed handing out *keys* once each."""
    lock, it = threading.Lock(), iter(keys)

    def feed():
        with lock:
            return next(it, None)
    return feed


def _until(deadline: float, draw: Callable[[], Key]
           ) -> Callable[[], Key | None]:
    return lambda: draw() if perf_counter() < deadline else None


class _Rounds:
    """Feed of whole rounds: once *window* seconds have passed, the round
    in progress is finished and no new round starts."""

    def __init__(self, rounds: list[list[Key]], window: float,
                 max_rounds: int | None = None) -> None:
        self._items = [(r, key) for r, keys in enumerate(rounds)
                       for key in keys]
        self._stop = len(rounds) if max_rounds is None else max_rounds
        self._window = window
        self._deadline: float | None = None
        self._last = 0
        self._i = 0
        self._lock = threading.Lock()
        self.keys: list[Key] = []

    @property
    def rounds(self) -> int:
        """Rounds handed out."""
        return self._last + 1 if self._i else 0

    def __call__(self) -> Key | None:
        with self._lock:
            now = perf_counter()
            if self._deadline is None:
                self._deadline = now + self._window
            if self._i >= len(self._items):
                return None
            if now >= self._deadline:
                self._stop = min(self._stop, self._last + 1)
            r, key = self._items[self._i]
            if r >= self._stop:
                return None
            self._i += 1
            self._last = r
            self.keys.append(key)
            return key


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _lookups(before: dict, after: dict, result: str) -> float:
    from repro.obs.timeseries import counter_delta
    return counter_delta(before, after, "repro_store_lookups_total",
                         where={"result": result})


def check_answers(bench: Bench, answers: Answers, keys: list[Key],
                  seed: int) -> None:
    """Round-trip every class's answer through ``ProvisionResult`` and
    compare a seeded sample against an in-process ``plan_schedule``."""
    from repro.core.planner import plan_schedule
    from repro.service.api import ProvisionResult

    keys = [key for key in keys if key in answers.first]
    for key in keys:
        doc = answers.first[key]
        bench.check("error" not in doc, f"{key}: served an error: "
                    f"{doc.get('error')}")
        bench.check(ProvisionResult.from_dict(doc).to_dict() == doc,
                    f"{key}: answer does not round-trip")
    rng = random.Random(f"reference/{seed}")
    for key in rng.sample(keys, min(bench.scale.sample, len(keys))):
        doc = answers.first[key]
        plan = plan_schedule(*key)
        served = (doc["family"], doc["alpha_t"], doc["alpha_r"],
                  doc["throughput"], doc["frame_length"])
        expected = (plan.family, plan.alpha_t, plan.alpha_r,
                    str(plan.throughput), plan.frame_length)
        bench.check(served == expected,
                    f"{key}: served {served}, reference {expected}")


def _record(bench: Bench, samples: list[Sample]) -> None:
    bench.count(len(samples), sum(1 for s in samples if not s.ok))


# ----------------------------------------------------------------------
# serve-hot
# ----------------------------------------------------------------------
def _hot_pass(bench: Bench, server: Server, seed: int, open_s: float,
              closed_s: float, spans: bool) -> dict[str, Any]:
    catalog = list(bench.scale.hot_catalog)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(catalog))]
    answers = Answers()
    client = Client(server, answers)
    feed = _shared(catalog)
    _record(bench, client.closed_loop([feed, feed]))   # cold pre-fill
    _record(bench, client.closed_loop([_shared(catalog)]))  # into the LRU

    rng = random.Random(f"serve-hot/open/{seed}")
    arrivals, t = [], rng.expovariate(HOT_RATE)
    while t < open_s:
        arrivals.append((t, rng.choices(catalog, weights)[0]))
        t += rng.expovariate(HOT_RATE)
    before = server.snapshot()
    if spans:
        client.spans = []
    opened = client.open_loop(arrivals)
    draws = [random.Random(f"serve-hot/closed/{seed}/{k}") for k in (0, 1)]
    started = perf_counter()
    deadline = started + closed_s
    closed = client.closed_loop(
        [_until(deadline, lambda r=r: r.choices(catalog, weights)[0])
         for r in draws])
    window = (started, max(s.end for s in closed))
    after = server.snapshot()
    _record(bench, opened + closed)
    check_answers(bench, answers, catalog, seed)
    left = _lookups(before, after, "disk_hit") + _lookups(before, after,
                                                           "miss")
    bench.check(left == 0, f"hot phase left the memory tier {left:g} times")
    return {"open": opened, "closed": closed, "window": window,
            "rate": len(closed) / (window[1] - window[0]),
            "answers": answers, "exported": (before, after),
            "spans": client.spans}


def serve_hot(bench: Bench, seed: int, traced: bool) -> dict[str, Any]:
    """Memory-hit traffic: HTTP, admission, coalescer, LRU, JSON."""
    if not traced:
        server = Server(bench, bench.path("cache"), cpus=bench.server_cpus)
        starts = [server.start()]
        run = _hot_pass(bench, server, seed, bench.seconds / 4,
                        3 * bench.seconds / 4, spans=False)
        rss = server.stop()
        starts += spawn_times(bench, bench.scale.setups - 1,
                              bench.server_cpus)
        opened = [(s.end - s.due) * 1e3 for s in run["open"]]
        closed = [(s.end - s.start) * 1e3 for s in run["closed"]]
        tail, tail_ms = _tail(closed)
        open_tail, open_tail_ms = _tail(opened)
        result = scaled_metrics(bench, starts,
                                [(s.start, s.end) for s in run["closed"]],
                                len(closed), [run["window"]],
                                bench.server_cpus)
        result["metrics"]["peak_rss_mb"] = rss
        result["diagnostics"].update({
            "closed_requests": len(closed),
            f"closed_{tail}_ms": tail_ms,
            f"closed_{tail}_within_{LATENCY_LIMIT_MS:g}ms":
                tail_ms <= LATENCY_LIMIT_MS,
            "open_requests": len(opened),
            "open_p50_ms": statistics.median(opened),
            f"open_{open_tail}_ms": open_tail_ms,
            "late_p99_ms": _late_p99(run["open"]),
        })
        return result

    sixth = bench.seconds / 6
    server = Server(bench, bench.path("cache"), cpus=bench.server_cpus)
    server.start()
    plain = _hot_pass(bench, server, seed, sixth, 2 * sixth, spans=False)
    server.stop()
    server = Server(bench, bench.path("cache"), traced=True,
                    cpus=bench.server_cpus)
    server.start()
    traced_run = _hot_pass(bench, server, seed, sixth, 2 * sixth, spans=True)
    server.stop()
    result = _serve_layers(server.spans(), traced_run["spans"],
                           plain["exported"], [plain["exported"]],
                           plain["answers"])
    result["metrics"].update({
        "serve.client.late_p99_ms": _late_p99(plain["open"]),
        "bench.trace_overhead_pct":
            (plain["rate"] / traced_run["rate"] - 1) * 100,
    })
    return result


def _tail(values: list[float]) -> tuple[str, float]:
    """The highest of p99, p98, p95, p90 with ten samples beyond it."""
    for q in (99, 98, 95, 90):
        if len(values) * (100 - q) >= 1000:
            return f"p{q}", _quantile(values, q / 100)
    return "max", max(values)


def _late_p99(samples: list[Sample]) -> float:
    """How late the open-loop generator sent, p99 in ms."""
    return _quantile([(s.start - s.due) * 1e3 for s in samples], 0.99)


def _serve_layers(program_spans: list[dict], client_spans: list[dict],
                  requests: tuple[dict, dict], lookups: list[tuple],
                  answers: Answers) -> dict[str, Any]:
    """Per-layer metrics of a serve workload: the traced pass's spans,
    plus the untraced pass's own ``/metrics.json`` export as
    ``(before, after)`` snapshot pairs — *requests* for the request
    histogram and coalescer, *lookups* for the store tiers."""
    from repro.obs.timeseries import (
        counter_delta,
        histogram_delta,
        histogram_quantile,
    )

    bd = layers.breakdown(program_spans, client_spans)
    out = layer_metrics(bd, len(client_spans))
    bounds, counts, _, _ = histogram_delta(*requests,
                                           "repro_serve_request_seconds")
    led, joined = (counter_delta(*requests, "repro_serve_coalesce_total",
                                 where={"result": r})
                   for r in ("led", "joined"))
    tiers = {r: sum(_lookups(*pair, r) for pair in lookups)
             for r in ("memory_hit", "disk_hit", "miss")}
    total = max(1.0, sum(tiers.values()))
    out.update({
        "serve.server.request_p50_ms":
            (histogram_quantile(bounds, counts, 0.5) or 0.0) * 1e3,
        "serve.response_kb": answers.bytes / max(1, answers.count) / 1024,
        "serve.coalesce.join_ratio": joined / max(1.0, led + joined),
        "service.store.memory_hit_ratio": tiers["memory_hit"] / total,
        "service.store.disk_hit_ratio": tiers["disk_hit"] / total,
    })
    return {"metrics": out, "breakdown": bd, "ops": len(client_spans),
            "spans": program_spans + client_spans}


def layer_metrics(bd: dict[str, Any], ops: int) -> dict[str, float]:
    """``<layer>.self_ms`` and ``<layer>.calls`` per end-to-end operation;
    the share of end-to-end time the named layers under the roots
    explain, and the roots' own (unattributed) share."""
    ops = max(1, ops)
    out = {}
    for name, entry in bd["layers"].items():
        out[f"{name}.self_ms"] = entry["self_s"] / ops * 1e3
        out[f"{name}.calls"] = entry["calls"] / ops
    total = sum(entry["self_s"] for entry in bd["layers"].values())
    e2e = max(bd["e2e_s"], 1e-9)
    out["bench.layer_share_sum_pct"] = (total - bd["root_self_s"]) / e2e * 100
    out["bench.unattributed_pct"] = bd["root_self_s"] / e2e * 100
    return out


# ----------------------------------------------------------------------
# serve-cold
# ----------------------------------------------------------------------
def _cold_pass(bench: Bench, rounds: list[list[Key]], seed: int,
               window: float, max_rounds: int | None = None,
               traced: bool = False) -> dict[str, Any]:
    cache = bench.path("cache")
    server = Server(bench, cache, traced=traced)
    starts = [server.start()]
    answers = Answers()
    client = Client(server, answers)
    client.spans = [] if traced else None
    feed = _Rounds(rounds, window, max_rounds)
    started = perf_counter()
    cold = client.closed_loop([feed, feed])
    window = (started, max(s.end for s in cold))
    planned = server.snapshot()
    rss = server.stop()

    starts.append(server.start())   # phase B: same cache, new process
    warm = client.closed_loop([_shared(feed.keys)])
    replayed = server.snapshot()
    rss = max(rss, server.stop())
    _record(bench, cold + warm)
    bench.check(_lookups({}, replayed, "miss") == 0,
                "restart replay missed the on-disk store")
    check_answers(bench, answers, feed.keys, seed)
    entries = list(cache.glob("??/*.json"))
    return {"starts": starts, "cold": cold, "warm": warm, "window": window,
            "rate": len(cold) / (window[1] - window[0]), "rss": rss,
            "rounds": feed.rounds,
            "planned": planned, "replayed": replayed, "answers": answers,
            "spans": client.spans,
            "program_spans": server.spans() if traced else [],
            "entry_kb": sum(p.stat().st_size for p in entries)
            / max(1, len(entries)) / 1024}


def serve_cold(bench: Bench, seed: int, traced: bool) -> dict[str, Any]:
    """Cold plans (construction, scoring, store writes), then disk reads."""
    rounds = cold_rounds(seed, bench.scale.cold_strata)
    if not traced:
        run = _cold_pass(bench, rounds, seed, 0.8 * bench.seconds)
        starts = run["starts"] + spawn_times(bench, bench.scale.setups - 2)
        cold = [(s.end - s.start) * 1e3 for s in run["cold"]]
        warm = [(s.end - s.start) * 1e3 for s in run["warm"]]
        result = scaled_metrics(bench, starts,
                                [(s.start, s.end) for s in run["cold"]],
                                len(cold), [run["window"]])
        result["metrics"]["peak_rss_mb"] = run["rss"]
        result["diagnostics"].update({
            "rounds": run["rounds"], "plans": len(cold),
            "raw_p80_ms": _quantile(cold, 0.8),
            "raw_disk_p50_ms": statistics.median(warm),
            "raw_disk_p80_ms": _quantile(warm, 0.8),
        })
        return result

    plain = _cold_pass(bench, rounds, seed, bench.seconds / 2)
    traced_run = _cold_pass(bench, rounds, seed, math.inf,
                            max_rounds=plain["rounds"], traced=True)
    # Each phase ran in its own process, so each snapshot is a delta
    # from zero; the request histogram is phase A's (cold plans only).
    result = _serve_layers(traced_run["program_spans"], traced_run["spans"],
                           ({}, plain["planned"]),
                           [({}, plain["planned"]), ({}, plain["replayed"])],
                           plain["answers"])
    result["metrics"].update({
        "service.store.entry_kb": plain["entry_kb"],
        "bench.trace_overhead_pct":
            (plain["rate"] / traced_run["rate"] - 1) * 100,
    })
    return result


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
def _validator() -> Callable[[dict], list[str]]:
    """``tools/validate_sweep.py``'s row validator, imported as is."""
    spec = importlib.util.spec_from_file_location(
        "validate_sweep", ROOT / "tools" / "validate_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.validate


def _points(spec: dict) -> int:
    return math.prod(len(spec[axis]) for axis in
                     ("families", "ns", "ds", "traffics", "seeds"))


def _sweep_job(bench: Bench, spec: dict, jobs: int,
               spans: Path | None = None, metrics_out: Path | None = None
               ) -> dict[str, Any]:
    """One ``repro sweep`` invocation; returns its interval, wall, peak
    RSS and rows."""
    spec_path, out = bench.path("spec"), bench.path("rows")
    checkpoints = bench.path("checkpoints")
    spec_path.write_text(json.dumps(spec) + "\n")
    args = ["sweep", "-i", str(spec_path), "-o", str(out), "--jobs",
            str(jobs), "--shard-size", "4", "--checkpoint-dir",
            str(checkpoints)]
    if metrics_out is not None:
        args += ["--metrics-out", str(metrics_out)]
    started = perf_counter()
    code, rss = bench.wait(bench.spawn(args, spans))
    ended = perf_counter()
    bench.check(code == 0, f"repro sweep exited {code}")
    rows = [json.loads(line) for line in out.read_text().splitlines()] \
        if out.exists() else []
    return {"interval": (started, ended), "wall": ended - started,
            "rss": rss, "rows": rows, "checkpoints": checkpoints}


def _check_rows(bench: Bench, spec: dict, rows: list[dict],
                validate: Callable[[dict], list[str]]) -> None:
    """Schema-valid, error-free rows for every point; saturated rows
    keep the paper's guarantee of at least one success per link and
    frame (``min_link_throughput >= 1``)."""
    bad = [row for row in rows if validate(row) or "error" in row
           or (row["point"]["traffic"] == "saturated"
               and row["metrics"]["min_link_throughput"] < 1)]
    missing = _points(spec) - len(rows)
    bench.count(_points(spec), len(bad) + max(0, missing))
    bench.check(not bad and not missing,
                f"{len(bad)} bad rows, {missing} missing of {_points(spec)}")


def _sweep_specs(bench: Bench, workload: str, seed: int) -> Iterator[dict]:
    """The workload's sweep specs, one per CLI invocation, forever."""
    base = dict(SATURATED if workload == "sweep-saturated" else QUEUED,
                **bench.scale.sweep_axes)
    per_job = bench.scale.seeds_per_job[workload]
    first = random.Random(f"{workload}/{seed}").randrange(1, 1 << 30)
    for job in itertools.count():
        start = first + job * per_job
        yield dict(base, seeds=list(range(start, start + per_job)))


def sweep(bench: Bench, seed: int, traced: bool, workload: str
          ) -> dict[str, Any]:
    """Simulation sweeps through the CLI with two pool workers."""
    validate = _validator()
    specs = _sweep_specs(bench, workload, seed)
    if traced:
        return _sweep_layers(bench, next(specs), validate)
    # Set-up is one CLI run over a single point of the workload's grid,
    # taken before and after the measurement like the servers' spawns.
    first = next(specs)
    setup_spec = dict(first, ns=[16], ds=[2], **{
        axis: first[axis][:1] for axis in ("families", "traffics", "seeds")})

    def setups(count: int) -> list[Interval]:
        intervals = []
        for _ in range(count):
            job = _sweep_job(bench, setup_spec, jobs=2)
            _check_rows(bench, setup_spec, job["rows"], validate)
            intervals.append(job["interval"])
        return intervals

    setup = setups(bench.scale.setups // 2)
    jobs, walls, rss = [], [], 0.0
    started = perf_counter()
    while not walls or perf_counter() - started \
            + statistics.median(walls) / 2 < bench.seconds:
        spec = next(specs)
        job = _sweep_job(bench, spec, jobs=2)
        _check_rows(bench, spec, job["rows"], validate)
        jobs.append(job["interval"])
        walls.append(job["wall"])
        rss = max(rss, job["rss"])
    setup += setups(bench.scale.setups - len(setup))
    points = _points(first) * len(jobs)
    result = scaled_metrics(bench, setup, jobs, points, jobs)
    result["metrics"]["peak_rss_mb"] = rss
    result["diagnostics"].update({"invocations": len(jobs),
                                  "points": points})
    return result


def _sweep_layers(bench: Bench, spec: dict,
                  validate: Callable[[dict], list[str]]) -> dict[str, Any]:
    """Per-layer metrics: the pool run's own export, then an untraced
    and a traced inline run of the same spec (the wrappers see every
    call only when no pool workers are involved)."""
    from repro.obs.timeseries import (
        counter_total,
        histogram_delta,
        histogram_quantile,
    )

    exported = bench.path("metrics")
    pool = _sweep_job(bench, spec, jobs=2, metrics_out=exported)
    plain = _sweep_job(bench, spec, jobs=1)
    spans_path = bench.path("spans")
    traced = _sweep_job(bench, spec, jobs=1, spans=spans_path)
    for job in (pool, plain, traced):
        _check_rows(bench, spec, job["rows"], validate)

    spans = layers.read_jsonl(spans_path)
    roots = [s for s in spans if s["name"] == "cli.sweep"]
    bd = layers.breakdown(spans, roots)
    points = _points(spec)
    out = layer_metrics(bd, points)
    snapshot = json.loads(exported.read_text())
    bounds, counts, _, _ = histogram_delta(
        {}, snapshot, "repro_runtime_task_queue_wait_seconds")
    _, _, _, busy = histogram_delta({}, snapshot,
                                    "repro_runtime_task_exec_seconds")
    files = list(pool["checkpoints"].glob("*.jsonl"))
    engine = bd["layers"].get("simulation.engine.run", {"self_s": 0.0})
    out.update({
        "service.runtime.queue_wait_p50_ms":
            (histogram_quantile(bounds, counts, 0.5) or 0.0) * 1e3,
        "service.runtime.busy_ratio": busy / (2 * pool["wall"]),
        "service.runtime.retries":
            counter_total(snapshot, "repro_runtime_retries_total"),
        "analysis.sweeps.checkpoint_kb":
            sum(p.stat().st_size for p in files) / max(1, len(files)) / 1024,
        "simulation.engine.slots_per_s":
            bd["slots"] / engine["self_s"] if engine["self_s"] else 0.0,
        "bench.trace_overhead_pct": (traced["wall"] / plain["wall"] - 1) * 100,
    })
    return {"metrics": out, "breakdown": bd, "ops": points, "spans": spans}


WORKLOADS: dict[str, Callable[[Bench, int, bool], dict[str, Any]]] = {
    "serve-hot": serve_hot,
    "serve-cold": serve_cold,
    "sweep-saturated":
        lambda bench, seed, traced: sweep(bench, seed, traced,
                                          "sweep-saturated"),
    "sweep-queued":
        lambda bench, seed, traced: sweep(bench, seed, traced,
                                          "sweep-queued"),
}
