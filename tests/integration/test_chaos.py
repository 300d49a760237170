"""Chaos acceptance: fault storms end to end, with every invariant pinned.

The contract of the chaos-hardened serve tier, asserted against real
sockets and real processes:

* under any injected fault mix, every request either succeeds or raises
  a **typed** :class:`~repro.serve.client.ServeError` — never a bare
  socket error, never a hang;
* the schedule store ends every storm with **zero corrupt entries**
  (scrub-verified);
* the same seed reproduces the **identical fault sequence**;
* a SIGKILLed serving process is restarted by the supervisor and the
  fleet recovers; a deterministic crash loop exits nonzero instead of
  flapping forever.
"""

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.faults import FaultPlan
from repro.serve.chaos import BackgroundProxy
from repro.serve.client import ServeError
from repro.serve.failover import FailoverClient
from repro.serve.server import BackgroundServer, ServeConfig
from repro.serve.supervisor import (
    CRASH_LOOP_EXIT_CODE,
    Supervisor,
    SupervisorConfig,
)
from repro.service.store import ScheduleStore

_SRC = Path(__file__).resolve().parents[2] / "src"


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{_SRC}:{env.get('PYTHONPATH', '')}"
    return env


_STORM_PLAN = FaultPlan(seed=13, proxy_refuse_rate=0.1,
                        proxy_reset_rate=0.1, proxy_truncate_rate=0.1,
                        proxy_delay_rate=0.1, proxy_delay_seconds=0.005)


def _storm(store_dir, seed=13):
    """One seeded fault storm; returns (fault_log, successes, failures)."""
    requests = [(12, 2, 0.5), (9, 3, 0.9), (16, 3, 0.5), (25, 4, 0.9)]
    ok, failed = 0, 0
    with BackgroundServer(ServeConfig(port=0, jobs=1),
                          store=ScheduleStore(store_dir)) as bs:
        with BackgroundProxy("127.0.0.1", bs.port,
                             plan=_STORM_PLAN) as bp:
            client = FailoverClient([(bp.host, bp.port)], retries=8,
                                    timeout=10.0, backoff_base=0.005,
                                    seed=seed, failure_threshold=4,
                                    breaker_reset_s=0.05)
            for i in range(24):
                n, d, duty = requests[i % len(requests)]
                try:
                    doc = client.plan(n, d, duty, include_schedule=False)
                    assert "request" in doc
                    ok += 1
                except ServeError as exc:
                    # The only acceptable failure: typed, with a code.
                    assert exc.code
                    failed += 1
            log = bp.fault_log
    return log, ok, failed


class TestFaultStorm:
    def test_every_request_succeeds_or_raises_typed_error(self, tmp_path):
        log, ok, failed = _storm(tmp_path / "cache")
        assert ok + failed == 24
        # The retry ladder should absorb nearly everything at a 40%
        # fault rate with 8 retries; require a healthy majority so a
        # silently-broken retry path cannot pass.
        assert ok >= 20
        assert any(kind != "ok" for _i, kind in log)

    def test_store_ends_with_zero_corrupt_entries(self, tmp_path):
        _storm(tmp_path / "cache")
        store = ScheduleStore(tmp_path / "cache")
        report = store.scrub()
        assert report.clean
        assert report.scanned > 0  # the storm did write entries
        assert report.quarantined == 0

    def test_same_seed_reproduces_the_fault_sequence(self, tmp_path):
        log_a, _ok, _failed = _storm(tmp_path / "a")
        log_b, _ok2, _failed2 = _storm(tmp_path / "b")
        assert log_a == log_b


class TestSupervisedRecovery:
    def test_sigkill_mid_load_recovers_and_store_stays_clean(self, tmp_path):
        """The full drill: supervised real server, kill -9, keep calling."""
        port = _free_port()
        ready = tmp_path / "ready.txt"
        pid_file = tmp_path / "pid.txt"
        cache = tmp_path / "cache"
        sup = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--supervise",
             "--port", str(port), "--jobs", "1",
             "--ready-file", str(ready), "--pid-file", str(pid_file),
             "--cache-dir", str(cache),
             "--restart-backoff-base", "0.05"],
            env=_env(), stderr=subprocess.PIPE, text=True)
        try:
            self._wait_ready(sup, ready)
            client = FailoverClient([("127.0.0.1", port)], retries=12,
                                    timeout=10.0, backoff_base=0.05,
                                    breaker_reset_s=0.2)
            assert client.health()["ok"] is True
            client.plan(12, 2, 0.5, include_schedule=False)

            first_pid = int(pid_file.read_text())
            os.kill(first_pid, signal.SIGKILL)

            # Through the outage every call must stay typed; the fleet
            # must recover within the retry ladder.
            recovered = False
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    doc = client.plan(9, 3, 0.9, include_schedule=False)
                    assert "request" in doc
                    recovered = True
                    break
                except ServeError as exc:
                    assert exc.code  # typed, never a bare socket error
            assert recovered, "fleet never recovered after the kill"
            assert int(pid_file.read_text()) != first_pid

            sup.send_signal(signal.SIGTERM)
            assert sup.wait(timeout=30) == 0
        finally:
            if sup.poll() is None:
                sup.kill()
                sup.wait()

        report = ScheduleStore(cache).scrub()
        assert report.clean
        assert report.scanned > 0

    @staticmethod
    def _wait_ready(proc, ready, timeout=30):
        deadline = time.monotonic() + timeout
        while not ready.exists():
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline, "server never became ready"
            time.sleep(0.05)


class TestCrashLoop:
    def test_deterministically_broken_child_exits_nonzero(self):
        config = SupervisorConfig(max_restarts=2, restart_window_s=60.0,
                                  backoff_base_s=0.01, backoff_cap_s=0.01)
        sup = Supervisor([sys.executable, "-c", "import sys; sys.exit(1)"],
                         config=config)
        assert sup.run() == CRASH_LOOP_EXIT_CODE
        starts = [d for kind, d in sup.events if kind == "start"]
        assert len(starts) == 3  # initial + the 2 tolerated restarts

    def test_restart_timeline_is_seeded(self):
        config = SupervisorConfig(seed=21, max_restarts=3,
                                  backoff_base_s=0.01)
        a = Supervisor(["x"], config=config)
        b = Supervisor(["x"], config=config)
        assert [a.policy.delay("supervisor", k) for k in (1, 2, 3)] \
            == [b.policy.delay("supervisor", k) for k in (1, 2, 3)]


class TestSupervisedCLI:
    def test_crash_loop_via_cli_exits_nonzero(self, tmp_path):
        """--supervise with an unbindable port crashes every child."""
        # Occupy a port, then supervise a server told to bind it.
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen(1)
            port = sock.getsockname()[1]
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--supervise",
                 "--port", str(port), "--no-cache",
                 "--max-restarts", "1", "--restart-backoff-base", "0.01"],
                env=_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == CRASH_LOOP_EXIT_CODE
        assert "crash loop" in proc.stderr


@pytest.mark.slow
class TestLongStorm:
    def test_hundred_request_storm(self, tmp_path):
        """A longer soak for the slow tier; same invariants."""
        plan = FaultPlan(seed=5, proxy_refuse_rate=0.15,
                         proxy_reset_rate=0.15, proxy_truncate_rate=0.1)
        ok = 0
        with BackgroundServer(ServeConfig(port=0, jobs=1),
                              store=ScheduleStore(tmp_path / "c")) as bs:
            with BackgroundProxy("127.0.0.1", bs.port, plan=plan) as bp:
                client = FailoverClient([(bp.host, bp.port)], retries=10,
                                        timeout=10.0, backoff_base=0.002,
                                        failure_threshold=5,
                                        breaker_reset_s=0.02)
                for i in range(100):
                    try:
                        client.plan(12 + (i % 3), 2, 0.9,
                                    include_schedule=False)
                        ok += 1
                    except ServeError as exc:
                        assert exc.code
        assert ok >= 90
        assert ScheduleStore(tmp_path / "c").scrub().clean
