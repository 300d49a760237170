"""`repro serve` and `repro call`, end to end over loopback."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.serve.server import BackgroundServer, ServeConfig
from repro.service.api import ProvisionResult


@pytest.fixture(scope="module")
def server():
    """One background server shared by the `repro call` tests."""
    with BackgroundServer(ServeConfig(port=0, jobs=2)) as bs:
        yield bs


def _call(server, *argv):
    return main(["call", *argv, "--host", server.host,
                 "--port", str(server.port)])


class TestCall:
    def test_health(self, server, capsys):
        assert _call(server, "health") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "serving"

    def test_plan_writes_schedule_file(self, server, tmp_path, capsys):
        out = tmp_path / "sched.json"
        rc = _call(server, "plan", "-n", "12", "-d", "2",
                   "--max-duty", "1/2", "-o", str(out))
        captured = capsys.readouterr()
        assert rc == 0
        doc = json.loads(captured.out)
        assert "schedule" not in doc  # moved into the file
        assert doc["request"]["max_duty"] == "1/2"
        saved = json.loads(out.read_text())
        assert saved["format"] == "repro-schedule"

    def test_plan_file_has_the_bytes_of_repro_plan(self, server, tmp_path):
        args = ["-n", "12", "-d", "2", "--max-duty", "0.5", "--balanced"]
        local, remote = tmp_path / "plan.json", tmp_path / "call.json"
        assert main(["plan", *args, "-o", str(local)]) == 0
        assert _call(server, "plan", *args, "-o", str(remote)) == 0
        assert remote.read_bytes() == local.read_bytes()

    def test_plan_missing_args_is_usage_error(self, server, capsys):
        assert _call(server, "plan", "-n", "12") == 2
        assert "needs -n, -d and --max-duty" in capsys.readouterr().err

    def test_plan_infeasible_budget_exits_1(self, server, capsys):
        rc = _call(server, "plan", "-n", "12", "-d", "2",
                   "--max-duty", "0.05")
        assert rc == 1
        assert "error" in json.loads(capsys.readouterr().out)

    def test_provision_round_trips_jsonl(self, server, tmp_path, capsys):
        infile = tmp_path / "reqs.jsonl"
        outfile = tmp_path / "res.jsonl"
        infile.write_text(
            '{"n": 12, "d": 2, "max_duty": 0.5}\n'
            '{"n": 9, "d": 3, "max_duty": 0.9}\n')
        rc = _call(server, "provision", "-i", str(infile), "-o", str(outfile))
        assert rc == 0
        assert "provisioned 2/2" in capsys.readouterr().err
        lines = outfile.read_text().splitlines()
        results = [ProvisionResult.from_dict(json.loads(s)) for s in lines]
        assert all(r.plan is not None for r in results)
        assert [r.request.n for r in results] == [12, 9]

    def test_provision_failed_request_exits_1(self, server, tmp_path, capsys):
        infile = tmp_path / "reqs.jsonl"
        infile.write_text('{"n": 12, "d": 2, "max_duty": 0.01}\n')
        rc = _call(server, "provision", "-i", str(infile),
                   "-o", "-", "--no-schedules")
        captured = capsys.readouterr()
        assert rc == 1
        assert "error" in json.loads(captured.out.splitlines()[0])

    def test_provision_bad_input_line_exits_2(self, server, tmp_path, capsys):
        infile = tmp_path / "reqs.jsonl"
        infile.write_text('{"n": 12, "d": 2, "max_duty": 0.5, "wat": 1}\n')
        assert _call(server, "provision", "-i", str(infile)) == 2
        assert "unknown fields" in capsys.readouterr().err

    def test_metrics_json_snapshot(self, server, capsys):
        assert _call(server, "metrics", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "repro-metrics"

    def test_unreachable_server_exits_4(self, capsys):
        rc = main(["call", "health", "--port", "1", "--retries", "0",
                   "--timeout", "1"])
        assert rc == 4
        assert "error: server" in capsys.readouterr().err


class TestServeProcess:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """The deployment path: real process, ready-file, SIGTERM."""
        ready = tmp_path / "ready"
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}:{env.get('PYTHONPATH', '')}"
        # The with block closes the stderr pipe once the process is gone.
        with subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--no-cache", "--ready-file", str(ready)],
                env=env, stderr=subprocess.PIPE, text=True) as proc:
            try:
                deadline = time.monotonic() + 30
                while not ready.exists():
                    assert proc.poll() is None, proc.stderr.read()
                    assert time.monotonic() < deadline, \
                        "server never became ready"
                    time.sleep(0.05)
                host, port = ready.read_text().split()

                rc = main(["call", "plan", "-n", "9", "-d", "3",
                           "--max-duty", "0.8", "--host", host,
                           "--port", port])
                assert rc == 0

                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=30) == 0
                stderr = proc.stderr.read()
                assert "serving on http://" in stderr
                assert "drained; exiting" in stderr
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

    def test_sigterm_right_after_ready_file_still_drains(self, tmp_path):
        """A SIGTERM the instant the ready file lands must drain.

        The child patches ``Path.replace`` to signal itself right after
        the atomic ready-file rename, the earliest moment a script can
        see the server as ready.
        """
        ready = tmp_path / "ready"
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}:{env.get('PYTHONPATH', '')}"
        child = (
            "import os, pathlib, signal, sys\n"
            "from repro.cli import main\n"
            "real = pathlib.Path.replace\n"
            "def replace(self, target):\n"
            "    moved = real(self, target)\n"
            f"    if str(target) == {str(ready)!r}:\n"
            "        os.kill(os.getpid(), signal.SIGTERM)\n"
            "    return moved\n"
            "pathlib.Path.replace = replace\n"
            f"sys.exit(main(['serve', '--port', '0', '--no-cache', "
            f"'--ready-file', {str(ready)!r}]))\n")
        proc = subprocess.run([sys.executable, "-c", child], env=env,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "drained; exiting" in proc.stderr
