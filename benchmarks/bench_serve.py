"""E-serve — the schedule server under loopback load: latency + coalescing.

A :class:`~repro.serve.server.BackgroundServer` is driven by a threaded
load generator through the real HTTP client — full wire round trips, not
in-process shortcuts.  Two workloads against a cold server each:

* **hot-key** — every client asks for the *same* ``(n, D, duty)`` class,
  the worst case an admission queue faces and the best case for
  single-flight coalescing.  Contract: the planner constructs exactly
  what one cold request costs — concurrent duplicates share the flight,
  sequential re-asks hit the plan cache.
* **uniform** — clients spread over six disjoint classes, the
  cache-friendly steady state.  Contract: total construction work equals
  one cold batch over the six classes — no class is ever re-evaluated.

The table reports p50/p99 latency per workload plus the coalescing hit
rate observed by the server's own metrics; the JSON summary headline is
the hot-key p99 in milliseconds, and a per-workload sidecar lands in
``benchmarks/results/serve_load.json``.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

import repro.core.planner as planner_mod
from repro.analysis.tables import Table
from repro.obs import context as _context
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SamplingProfiler, parse_collapsed, sample_profile
from repro.obs.tracing import Tracer, set_default_tracer, span
from repro.serve.client import ServeClient
from repro.serve.server import BackgroundServer, ServeConfig
from repro.service.api import ProvisionRequest, provision_batch
from repro.service.store import ScheduleStore

HOT_DOC = {"n": 12, "d": 2, "max_duty": 0.5}
# Disjoint eval-key spaces: distinct (n, D, balanced) per class, so the
# construction count of a cold batch is an exact workload baseline.
UNIFORM_DOCS = [
    {"n": 9, "d": 3, "max_duty": 0.8},
    {"n": 10, "d": 2, "max_duty": 0.6},
    {"n": 12, "d": 2, "max_duty": 0.5},
    {"n": 12, "d": 2, "max_duty": 0.5, "balanced": True},
    {"n": 15, "d": 2, "max_duty": 0.4},
    {"n": 16, "d": 3, "max_duty": 0.5},
]
THREADS = 8
REQUESTS_PER_THREAD = 6


class _ConstructionCounter:
    """Count real substrate constructions, thread-safely."""

    def __init__(self):
        self.count = 0
        self._lock = threading.Lock()
        self._real = None

    def __enter__(self):
        self._real = planner_mod.construct_detailed

        def counting(*args, **kwargs):
            with self._lock:
                self.count += 1
            return self._real(*args, **kwargs)

        planner_mod.construct_detailed = counting
        return self

    def __exit__(self, *exc_info):
        planner_mod.construct_detailed = self._real


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def _baseline_constructions(tmp_path, docs):
    """Construction cost of one cold batch over *docs*."""
    requests = [ProvisionRequest.from_dict(doc) for doc in docs]
    with _ConstructionCounter() as counter:
        results = provision_batch(
            requests, store=ScheduleStore(tmp_path / "baseline"), jobs=1)
    assert all(r.error is None for r in results)
    return counter.count


def _drive(client, docs):
    """One load-generator thread: request each doc, record latencies."""
    latencies = []
    for doc in docs:
        start = perf_counter()
        results = client.provision([doc], include_schedules=False)
        latencies.append(perf_counter() - start)
        assert "error" not in results[0]
    return latencies


def _run_workload(tmp_path, name, per_thread_docs):
    """Spin up a cold server, push the workload, return the stats row."""
    registry = MetricsRegistry()
    store = ScheduleStore(tmp_path / f"cache-{name}", registry=registry)
    config = ServeConfig(port=0, jobs=4, max_inflight=THREADS * 2)
    wall_start = perf_counter()
    with _ConstructionCounter() as counter, \
            BackgroundServer(config, store=store,
                             registry=registry) as bs:
        client = ServeClient(bs.host, bs.port, retries=3, backoff_base=0.01)
        with ThreadPoolExecutor(THREADS) as pool:
            futures = [pool.submit(_drive, client, docs)
                       for docs in per_thread_docs]
            latencies = sorted(lat for f in futures for lat in f.result())
    wall = perf_counter() - wall_start
    coalesce = registry.get("repro_serve_coalesce_total")
    led = coalesce.value(result="led") if coalesce is not None else 0
    joined = coalesce.value(result="joined") if coalesce is not None else 0
    return {
        "workload": name,
        "requests": len(latencies),
        "p50_ms": _quantile(latencies, 0.50) * 1e3,
        "p99_ms": _quantile(latencies, 0.99) * 1e3,
        "constructions": counter.count,
        "flights": int(led),
        "coalesce_joined": int(joined),
        "coalesce_hit_rate": joined / (led + joined) if led + joined else 0.0,
        "wall_s": wall,
    }


def test_serve_loopback_load(report, headline, tmp_path):
    hot_cost = _baseline_constructions(tmp_path / "hot", [HOT_DOC])
    uniform_cost = _baseline_constructions(tmp_path / "uni", UNIFORM_DOCS)

    hot = _run_workload(
        tmp_path, "hot-key",
        [[HOT_DOC] * REQUESTS_PER_THREAD for _ in range(THREADS)])
    uniform = _run_workload(
        tmp_path, "uniform",
        [[UNIFORM_DOCS[(t + k) % len(UNIFORM_DOCS)]
          for k in range(REQUESTS_PER_THREAD)] for t in range(THREADS)])

    # Hot-key contract: 48 requests cost exactly one cold evaluation —
    # concurrent duplicates coalesced, sequential re-asks cache-hit.
    assert hot["constructions"] == hot_cost
    assert hot["coalesce_joined"] > 0
    # Uniform contract: six classes cost exactly one cold batch.
    assert uniform["constructions"] == uniform_cost

    table = Table("workload", "requests", "p50_ms", "p99_ms",
                  "constructions", "flights", "coalesce_joined",
                  "coalesce_hit_rate", "wall_s",
                  title=f"Loopback serve load ({THREADS} threads x "
                        f"{REQUESTS_PER_THREAD} requests, jobs=4; cold "
                        f"costs: hot={hot_cost}, uniform={uniform_cost})")
    for row in (hot, uniform):
        table.row(**{k: (round(v, 3) if isinstance(v, float) else v)
                     for k, v in row.items()})
    report(table, "serve_load")
    headline("hot_key_p99_ms", hot["p99_ms"])

    # The machine-readable per-workload summary (alongside the module's
    # repro-bench-summary sidecar, which carries only the headline).
    summary = {
        "benchmark": "bench_serve",
        "format": "repro-serve-load",
        "version": 1,
        "baselines": {"hot-key": hot_cost, "uniform": uniform_cost},
        "workloads": [hot, uniform],
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "serve_load.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _trace_machinery_once(hist_series):
    """Exactly the correlation work one warm request adds to the serve
    path: a trace scope, the request/plan/lead/pool spans with the
    request's status, and one exemplar-bearing observation."""
    with _context.trace_context("ab" * 8, "cd" * 8):
        with span("serve.request", endpoint="/plan", inflight=1) as attrs:
            with span("serve.plan", n=12, d=2):
                with span("serve.coalesce.lead"):
                    with span("serve.pool"):
                        pass
            attrs["status"] = 200
    hist_series.observe(0.001, trace_id="ab" * 8)


def test_tracing_overhead_within_budget(report, headline, tmp_path):
    """The correlation machinery must cost < 5% of a warm request."""
    registry = MetricsRegistry()
    store = ScheduleStore(tmp_path / "cache-overhead", registry=registry)
    with BackgroundServer(ServeConfig(port=0, jobs=2), store=store,
                          registry=registry) as bs:
        client = ServeClient(bs.host, bs.port, retries=1)
        client.provision([HOT_DOC], include_schedules=False)  # cold fill
        latencies = []
        for _ in range(40):
            start = perf_counter()
            client.provision([HOT_DOC], include_schedules=False)
            latencies.append(perf_counter() - start)
    warm_p50 = _quantile(sorted(latencies), 0.50)

    # Micro-measure the added work directly (an A/B run over loopback
    # HTTP would drown a few microseconds in scheduler noise).
    tracer = Tracer()
    old = set_default_tracer(tracer)
    try:
        series = MetricsRegistry().histogram(
            "h_seconds", "overhead probe",
            exemplars=True).labels(endpoint="/plan")
        iterations = 2000
        start = perf_counter()
        for _ in range(iterations):
            _trace_machinery_once(series)
        per_request = (perf_counter() - start) / iterations
    finally:
        set_default_tracer(old)

    overhead = per_request / warm_p50
    assert overhead <= 0.05, (
        f"tracing machinery costs {per_request * 1e6:.1f}us/request = "
        f"{overhead:.1%} of the warm p50 ({warm_p50 * 1e3:.2f}ms); "
        f"budget is 5%")

    table = Table("warm_p50_ms", "trace_cost_us", "overhead_pct",
                  title="Correlation-machinery overhead on the warm "
                        "provision path")
    table.row(warm_p50_ms=round(warm_p50 * 1e3, 3),
              trace_cost_us=round(per_request * 1e6, 2),
              overhead_pct=round(overhead * 100, 3))
    report(table, "serve_trace_overhead")
    headline("tracing_overhead_pct", overhead * 100)


def test_sampling_profiler_overhead(report, headline, tmp_path):
    """The 100 hz sampler must cost < 5% of the warm provision path.

    The sampler charges the program one frame walk per pass, so its
    steady-state overhead is ``hz * per_pass_cost`` seconds of GIL time
    per wall second.  The pass cost is micro-measured directly (an A/B
    p50 comparison over loopback HTTP would drown ~10us of sampling in
    scheduler noise), then a profiled warm run checks end-to-end that
    the profile sees the serve stack at all.
    """
    registry = MetricsRegistry()
    store = ScheduleStore(tmp_path / "cache-prof", registry=registry)
    with BackgroundServer(ServeConfig(port=0, jobs=2), store=store,
                          registry=registry) as bs:
        client = ServeClient(bs.host, bs.port, retries=1)
        client.provision([HOT_DOC], include_schedules=False)  # cold fill
        latencies = []
        for _ in range(40):
            start = perf_counter()
            client.provision([HOT_DOC], include_schedules=False)
            latencies.append(perf_counter() - start)

        # Pass cost with the serve tier's real thread population (event
        # loop + worker pool + client threads) still alive.
        profiler = SamplingProfiler(hz=100)
        passes = 200
        start = perf_counter()
        for _ in range(passes):
            profiler.sample_once()
        per_pass = (perf_counter() - start) / passes

        # End-to-end: the warm path profiled live still yields stacks.
        with sample_profile(hz=100) as live:
            for _ in range(10):
                client.provision([HOT_DOC], include_schedules=False)
        live_profile = live.stop()
    warm_p50 = _quantile(sorted(latencies), 0.50)

    # hz walks per second, each stealing per_pass seconds of GIL time:
    # the fraction of a warm request the sampler can possibly eat.
    overhead = 100 * per_pass
    assert overhead <= 0.05, (
        f"sampling at 100 hz costs {per_pass * 1e6:.1f}us/pass = "
        f"{overhead:.1%} of wall time; budget is 5%")
    assert live_profile.samples > 0
    assert parse_collapsed(live_profile.collapsed())

    table = Table("warm_p50_ms", "pass_cost_us", "overhead_pct",
                  "live_samples",
                  title="Sampling-profiler overhead at 100 hz on the warm "
                        "provision path")
    table.row(warm_p50_ms=round(warm_p50 * 1e3, 3),
              pass_cost_us=round(per_pass * 1e6, 2),
              overhead_pct=round(overhead * 100, 3),
              live_samples=live_profile.samples)
    report(table, "serve_profiler_overhead")
    headline("profiler_overhead_pct", overhead * 100)
