"""The process supervisor: restarts, crash loops, seeded backoff."""

import argparse
import sys

import pytest

from repro.faults import FaultPlan
from repro.serve.supervisor import (
    CRASH_LOOP_EXIT_CODE,
    Supervisor,
    SupervisorConfig,
    serve_child_argv,
)


class FakeChild:
    """A scripted child process: exits with a fixed code when waited on."""

    _pids = iter(range(1000, 9999))

    def __init__(self, code, on_wait=None):
        self.pid = next(self._pids)
        self._code = code
        self._on_wait = on_wait
        self._done = False

    def wait(self):
        if self._on_wait is not None:
            self._on_wait()
        self._done = True
        return self._code

    def poll(self):
        return self._code if self._done else None

    def send_signal(self, _sig):
        pass


class FakePopen:
    """Hands out scripted FakeChild processes in order."""

    def __init__(self, codes, on_spawn=None):
        self.codes = list(codes)
        self.spawned = 0
        self._on_spawn = on_spawn

    def __call__(self, argv):
        if self._on_spawn is not None:
            self._on_spawn()
        self.spawned += 1
        return FakeChild(self.codes.pop(0))


def _supervisor(codes, *, config=None, on_spawn=None, **kwargs):
    sleeps = []
    clock = {"now": 0.0}

    def sleep(delay):
        sleeps.append(delay)
        clock["now"] += delay

    popen = FakePopen(codes, on_spawn=on_spawn)
    sup = Supervisor([sys.executable, "-c", "pass"], config=config,
                     clock=lambda: clock["now"], sleep=sleep, popen=popen,
                     **kwargs)
    return sup, popen, sleeps


class TestRestarts:
    def test_crashes_restart_until_clean_exit(self):
        sup, popen, sleeps = _supervisor([1, -9, 0])
        assert sup.run() == 0
        assert popen.spawned == 3
        assert sup.restarts == 2
        assert len(sleeps) == 2
        kinds = [kind for kind, _detail in sup.events]
        assert kinds == ["start", "exit", "backoff",
                         "start", "exit", "backoff", "start", "exit"]

    def test_immediate_clean_exit_never_restarts(self):
        sup, popen, sleeps = _supervisor([0])
        assert sup.run() == 0
        assert popen.spawned == 1
        assert sup.restarts == 0
        assert sleeps == []

    def test_crash_loop_exits_nonzero(self):
        config = SupervisorConfig(max_restarts=2, backoff_base_s=0.0)
        sup, popen, _sleeps = _supervisor([1, 1, 1, 1, 1], config=config)
        assert sup.run() == CRASH_LOOP_EXIT_CODE
        # initial start + 2 tolerated restarts, then give up.
        assert popen.spawned == 3
        assert sup.events[-1][0] == "crash-loop"

    def test_old_crashes_age_out_of_the_window(self):
        # Window of 10s, crashes 100s apart: the counter never exceeds 1,
        # so even max_restarts=1 keeps restarting forever.
        config = SupervisorConfig(max_restarts=1, restart_window_s=10.0,
                                  backoff_base_s=100.0, backoff_cap_s=100.0)
        sup, popen, _sleeps = _supervisor([1, 1, 1, 0], config=config)
        assert sup.run() == 0
        assert popen.spawned == 4

    def test_ready_file_cleared_before_each_start(self, tmp_path):
        ready = tmp_path / "ready.txt"

        def spawn_check():
            assert not ready.exists()
            ready.write_text("host port\n")  # the child publishes it

        sup, popen, _sleeps = _supervisor([1, 0], on_spawn=spawn_check,
                                          ready_file=ready)
        assert sup.run() == 0
        assert popen.spawned == 2

    def test_stop_request_ends_supervision(self):
        # The child dies from the forwarded SIGTERM (-15); a stopping
        # supervisor maps that to a clean exit and never restarts.
        sup, popen, _sleeps = _supervisor([-15, 1])

        def stopping_spawn():
            sup.request_stop()

        popen._on_spawn = stopping_spawn
        assert sup.run() == 0
        assert popen.spawned == 1


class TestBackoff:
    def test_backoff_is_seeded_and_deterministic(self):
        config = SupervisorConfig(seed=9, backoff_base_s=0.2,
                                  backoff_cap_s=5.0)
        a = Supervisor(["x"], config=config)
        b = Supervisor(["x"], config=config)
        delays = [a.policy.delay("supervisor", k) for k in (1, 2, 3, 4)]
        assert delays == [b.policy.delay("supervisor", k)
                          for k in (1, 2, 3, 4)]
        jitter = FaultPlan(seed=9)
        for k, delay in enumerate(delays, start=1):
            expected = min(5.0, 0.2 * 2.0 ** (k - 1)) \
                * jitter.backoff_jitter("supervisor", k)
            assert delay == expected

    def test_distinct_seeds_distinct_schedules(self):
        a = Supervisor(["x"], config=SupervisorConfig(seed=1))
        b = Supervisor(["x"], config=SupervisorConfig(seed=2))
        assert [a.policy.delay("supervisor", k) for k in (1, 2, 3)] \
            != [b.policy.delay("supervisor", k) for k in (1, 2, 3)]

    def test_sleeps_match_the_published_schedule(self):
        config = SupervisorConfig(seed=3, backoff_base_s=0.01)
        sup, _popen, sleeps = _supervisor([1, 1, 0], config=config)
        sup.run()
        assert sleeps == [sup.policy.delay("supervisor", 1),
                          sup.policy.delay("supervisor", 2)]


class TestConfigAndArgv:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(max_restarts=-1)
        with pytest.raises(ValueError):
            SupervisorConfig(restart_window_s=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(backoff_base_s=-0.1)
        with pytest.raises(ValueError):
            Supervisor([])

    def test_serve_child_argv_strips_supervisor_flags(self):
        args = argparse.Namespace(
            host="127.0.0.1", port=0, jobs=1, max_inflight=8, deadline=30.0,
            cache_dir="/tmp/c", no_cache=False, ready_file="ready.txt",
            pid_file="pid.txt", log_level="info", log_format="json",
            supervise=True, max_restarts=5, restart_window=60.0,
            restart_backoff_base=0.2, restart_seed=0)
        argv = serve_child_argv(args)
        assert argv[:4] == [sys.executable, "-m", "repro", "serve"]
        assert "--supervise" not in argv
        assert "--max-restarts" not in argv
        assert "--ready-file" in argv and "--pid-file" in argv
        assert argv[argv.index("--log-format") + 1] == "json"
