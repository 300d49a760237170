"""E-chaos — the serve tier under injected faults: overhead + recovery.

Three phases against real sockets, all seeded and reproducible:

* **proxy overhead** — the same warm-cache workload measured directly
  against a :class:`~repro.serve.server.BackgroundServer` and again
  through a *clean* (0% fault) :class:`~repro.serve.chaos.ChaosProxy`.
  Contract: the extra loopback hop costs less than 20% at the median.
* **fault mix** — a seeded ~5% fault cocktail (refuse/reset/truncate/
  delay) between a :class:`~repro.serve.client.ServeClient` and the
  server.  Latencies are end-to-end *including* retries; the retry
  ladder must absorb every injected fault, and the retries it took,
  counted from the proxy's fault log, land in the table.
* **recovery** — the server behind a fixed port is torn down mid-load
  and a replacement bound in its place; the time from teardown to the
  client's first successful call is the recovery latency.

The JSON summary headline is the fault-mix p99 in milliseconds and a
machine-readable sidecar lands in ``benchmarks/results/chaos_load.json``.
"""

import json
import socket
from pathlib import Path
from time import perf_counter

from repro.analysis.tables import Table
from repro.faults import FaultPlan
from repro.serve.chaos import BackgroundProxy
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import BackgroundServer, ServeConfig
from repro.service.store import ScheduleStore

# Warm-cache classes with schedules included: each timed overhead call
# ships the whole batch, so the payload is large enough that the relay
# cost of the proxy shows up as a *ratio*, not as loopback noise.
DOCS = [
    {"n": 25, "d": 4, "max_duty": 0.9},
    {"n": 16, "d": 3, "max_duty": 0.5},
    {"n": 12, "d": 2, "max_duty": 0.5},
]
OVERHEAD_REQUESTS = 60
FAULT_REQUESTS = 120
# A ~5% total fault rate: the advertised chaos-drill operating point.
FAULT_PLAN = FaultPlan(seed=17, proxy_refuse_rate=0.02,
                       proxy_reset_rate=0.01, proxy_truncate_rate=0.01,
                       proxy_delay_rate=0.01, proxy_delay_seconds=0.002)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def _warm(client):
    """Populate the plan cache so timed requests measure the wire."""
    for doc in DOCS:
        results = client.provision([doc], include_schedules=True)
        assert "error" not in results[0]


def _timed_run(call, count):
    """Drive *count* sequential calls, return sorted latencies."""
    latencies = []
    for i in range(count):
        doc = DOCS[i % len(DOCS)]
        start = perf_counter()
        call(doc)
        latencies.append(perf_counter() - start)
    return sorted(latencies)


def _stats_row(name, latencies, **extra):
    row = {
        "phase": name,
        "requests": len(latencies),
        "p50_ms": _quantile(latencies, 0.50) * 1e3,
        "p99_ms": _quantile(latencies, 0.99) * 1e3,
    }
    row.update(extra)
    return row


def _measure_overhead(tmp_path):
    """Warm workload direct vs through a clean proxy, same server."""
    store = ScheduleStore(tmp_path / "cache-overhead")
    with BackgroundServer(ServeConfig(port=0, jobs=2), store=store) as bs:
        direct = ServeClient(bs.host, bs.port, retries=2, backoff_base=0.01)
        _warm(direct)

        batch = DOCS * 3  # a fatter payload drowns per-connection noise

        def batch_call(client):
            def call(_doc):
                results = client.provision(batch, include_schedules=True)
                assert all("error" not in r for r in results)
            return call

        direct_lat = _timed_run(batch_call(direct), OVERHEAD_REQUESTS)

        with BackgroundProxy("127.0.0.1", bs.port) as bp:
            proxied = ServeClient(bp.host, bp.port, retries=2,
                                  backoff_base=0.01)
            proxied_lat = _timed_run(batch_call(proxied), OVERHEAD_REQUESTS)
            assert all(kind == "ok" for _i, kind in bp.fault_log)

    ratio = _quantile(proxied_lat, 0.50) / _quantile(direct_lat, 0.50)
    return (_stats_row("direct", direct_lat),
            _stats_row("proxied-0%", proxied_lat, overhead_ratio=ratio),
            ratio)


def _measure_fault_mix(tmp_path):
    """The seeded ~5% cocktail; latencies include the retry ladder."""
    store = ScheduleStore(tmp_path / "cache-faults")
    with BackgroundServer(ServeConfig(port=0, jobs=2), store=store) as bs:
        with BackgroundProxy("127.0.0.1", bs.port, plan=FAULT_PLAN) as bp:
            client = ServeClient(bp.host, bp.port, retries=8, timeout=10.0,
                                 backoff_base=0.002)
            _warm(client)

            def faulted_call(doc):
                results = client.provision([doc], include_schedules=True)
                assert "error" not in results[0]

            latencies = _timed_run(faulted_call, FAULT_REQUESTS)
            log = bp.fault_log

    faults = sum(1 for _i, kind in log if kind != "ok")
    # Every call answered, so each connection beyond one per call was a
    # retry.
    retries = len(log) - (len(DOCS) + FAULT_REQUESTS)
    row = _stats_row("fault-mix-5%", latencies, faults_injected=faults,
                     retries=retries)
    scrub = ScheduleStore(tmp_path / "cache-faults").scrub()
    assert scrub.clean  # no storm may leave corrupt entries behind
    return row


def _measure_recovery(tmp_path):
    """Kill the only server, bind a replacement, time until first win."""
    port = _free_port()
    store_dir = tmp_path / "cache-recovery"
    client = ServeClient("127.0.0.1", port, retries=20, timeout=10.0,
                         backoff_base=0.01)
    with BackgroundServer(ServeConfig(host="127.0.0.1", port=port, jobs=1),
                          store=ScheduleStore(store_dir)):
        assert client.health()["ok"] is True

    # The server is gone; the replacement binds while the client retries.
    outage_start = perf_counter()
    with BackgroundServer(ServeConfig(host="127.0.0.1", port=port, jobs=1),
                          store=ScheduleStore(store_dir)):
        while True:
            try:
                doc = client.plan(12, 2, 0.5, include_schedule=False)
                assert "request" in doc
                break
            except ServeError:
                pass
        recovery = perf_counter() - outage_start
    return {"phase": "recovery", "requests": 1,
            "p50_ms": recovery * 1e3, "p99_ms": recovery * 1e3,
            "recovery_ms": recovery * 1e3}


def test_chaos_load(report, headline, tmp_path):
    direct, proxied, ratio = _measure_overhead(tmp_path)
    fault_mix = _measure_fault_mix(tmp_path)
    recovery = _measure_recovery(tmp_path)

    # The relay contract: a fault-free proxy hop costs <20% at the median.
    assert ratio < 1.2, f"clean proxy overhead {ratio:.2f}x exceeds 1.2x"

    rows = [direct, proxied, fault_mix, recovery]
    table = Table("phase", "requests", "p50_ms", "p99_ms",
                  title=f"Chaos serve load (overhead x{OVERHEAD_REQUESTS}, "
                        f"fault mix x{FAULT_REQUESTS} at ~5%, seeded)")
    for row in rows:
        table.row(phase=row["phase"], requests=row["requests"],
                  p50_ms=round(row["p50_ms"], 3),
                  p99_ms=round(row["p99_ms"], 3))
    report(table, "chaos_load")
    headline("fault_mix_p99_ms", fault_mix["p99_ms"])

    summary = {
        "benchmark": "bench_chaos",
        "format": "repro-chaos-load",
        "version": 1,
        "fault_plan": FAULT_PLAN.to_dict(),
        "proxy_overhead_ratio": ratio,
        "phases": rows,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "chaos_load.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
