"""The chaos drill CI runs: supervised server, fault proxy, kill -9.

Usage::

    PYTHONPATH=src python tools/chaos_smoke.py [--seed N] [--requests N]

One end-to-end pass over the chaos-hardened serve tier, all seeded:

1. start ``repro serve --supervise`` as a real subprocess (ready-file
   handshake, pid file, on-disk schedule store);
2. put a :class:`~repro.serve.chaos.ChaosProxy` with a ~5% fault mix in
   front of it and drive ~50 requests through a
   :class:`~repro.serve.client.ServeClient` that retries each fault;
3. halfway through, ``kill -9`` the serving child (pid file) and keep
   calling — the supervisor must restart it and the calls must recover;
4. SIGTERM the supervisor and require a clean exit;
5. ``repro store scrub --metrics-out`` over the store the storm wrote —
   zero corrupt entries allowed — then validate the metrics snapshot
   with :mod:`tools.validate_metrics`.

Exit codes: 0 all invariants held, 1 an invariant failed.  Progress on
stderr; the scrub report lands on stdout for the CI log.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.faults import FaultPlan
from repro.serve.chaos import BackgroundProxy
from repro.serve.client import ServeClient, ServeError

REPO = Path(__file__).resolve().parents[1]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _say(message: str) -> None:
    print(f"chaos-smoke: {message}", file=sys.stderr, flush=True)


def _wait_ready(proc: subprocess.Popen, ready: Path, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while not ready.exists():
        if proc.poll() is not None:
            raise RuntimeError(f"supervisor exited early: {proc.returncode}")
        if time.monotonic() >= deadline:
            raise RuntimeError("server never became ready")
        time.sleep(0.05)


def drill(seed: int, requests: int, workdir: Path) -> int:
    ready = workdir / "ready.txt"
    pid_file = workdir / "pid.txt"
    cache = workdir / "cache"
    port = _free_port()
    plan = FaultPlan(seed=seed, proxy_refuse_rate=0.02,
                     proxy_reset_rate=0.01, proxy_truncate_rate=0.01,
                     proxy_delay_rate=0.01, proxy_delay_seconds=0.002)

    sup = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--supervise",
         "--port", str(port), "--jobs", "2",
         "--ready-file", str(ready), "--pid-file", str(pid_file),
         "--cache-dir", str(cache), "--restart-backoff-base", "0.05"],
        cwd=REPO)
    try:
        _wait_ready(sup, ready, timeout=30)
        _say(f"supervised server ready on port {port}")

        with BackgroundProxy("127.0.0.1", port, plan=plan) as bp:
            client = ServeClient(bp.host, bp.port, retries=12,
                                 timeout=10.0, backoff_base=0.05, seed=seed)
            classes = [(12, 2, 0.5), (9, 3, 0.8), (16, 3, 0.5), (25, 4, 0.9)]
            kill_at = requests // 2
            killed_pid = None
            ok = 0
            for i in range(requests):
                if i == kill_at:
                    killed_pid = int(pid_file.read_text())
                    os.kill(killed_pid, signal.SIGKILL)
                    _say(f"killed serving child pid {killed_pid} "
                         f"at request {i}")
                n, d, duty = classes[i % len(classes)]
                try:
                    doc = client.plan(n, d, duty, include_schedule=False)
                    assert "request" in doc
                    ok += 1
                except ServeError as exc:
                    _say(f"request {i}: typed failure {exc.code}")
            faults = sum(1 for _i, kind in bp.fault_log if kind != "ok")
            _say(f"{ok}/{requests} requests succeeded "
                 f"({faults} proxy faults injected)")

        if ok < requests - 5:
            _say(f"FAIL: only {ok}/{requests} requests survived the drill")
            return 1
        new_pid = int(pid_file.read_text())
        if new_pid == killed_pid:
            _say("FAIL: pid file never changed — no restart happened")
            return 1
        _say(f"supervisor restarted the server (pid {killed_pid} "
             f"-> {new_pid})")
    finally:
        if sup.poll() is None:
            sup.send_signal(signal.SIGTERM)
            try:
                code = sup.wait(timeout=30)
            except subprocess.TimeoutExpired:
                sup.kill()
                sup.wait()
                _say("FAIL: supervisor ignored SIGTERM")
                return 1
            if code != 0:
                _say(f"FAIL: supervisor exited {code} on SIGTERM")
                return 1
            _say("supervisor drained and exited 0")

    metrics = workdir / "scrub-metrics.json"
    scrub = subprocess.run(
        [sys.executable, "-m", "repro", "store", "scrub",
         "--cache-dir", str(cache), "--metrics-out", str(metrics)],
        cwd=REPO)
    if scrub.returncode != 0:
        _say("FAIL: the store scrub found corrupt entries")
        return 1
    validate = subprocess.run(
        [sys.executable, str(REPO / "tools" / "validate_metrics.py"),
         str(metrics)], cwd=REPO)
    if validate.returncode != 0:
        _say("FAIL: the scrub metrics snapshot is malformed")
        return 1
    _say("store clean, metrics snapshot valid — all invariants held")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=13,
                        help="fault plan + client backoff seed (default 13)")
    parser.add_argument("--requests", type=int, default=50,
                        help="requests to drive through the storm "
                             "(default 50)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        return drill(args.seed, args.requests, Path(tmp))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
