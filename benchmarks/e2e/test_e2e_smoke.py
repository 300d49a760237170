"""Smoke test of the end-to-end benchmark: every workload on tiny inputs.

Run with ``pytest benchmarks/e2e -q`` (about 20 s).  Each workload runs
untraced and traced with ``--smoke``; the test checks that the last line
of output carries every metric ``BENCHMARK.json`` declares, finite, that
the correctness checks ran and passed, and that the named layers explain
the traced end-to-end time: the roots' own, unattributed share stays
under its limit.
"""

import asyncio
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def _smoke(tmp_path: Path, workload: str, trace: int) -> tuple[str, dict]:
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--smoke",
                "--trace", str(trace), "--results-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    checks = re.search(r"(\d+) correctness checks, (\d+) failed",
                       proc.stdout)
    assert checks and int(checks[1]) > 0 and int(checks[2]) == 0
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(line: dict, declared: list[dict]) -> None:
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = line["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(tmp_path, workload):
    _, line = _smoke(tmp_path, workload, 0)
    _assert_metrics(line, CONFIG["end_to_end"])
    assert all(e["value"] > 0 for e in line["metrics"].values())
    sidecar = json.loads((tmp_path / f"{workload}.json").read_text())
    assert sidecar["format"] == "repro-bench-summary"
    assert {row["key"] for row in sidecar["results"]} == {
        f"{workload}/{m['name']}" for m in CONFIG["end_to_end"]}


#: Largest share of traced end-to-end time the roots may keep for
#: themselves.  In serve-hot the root is the load generator's request: its
#: own Python, the loopback and the kernel's accept, which no wrapper in
#: the program sees, take a fifth to a third of a memory hit.
UNATTRIBUTED_LIMIT_PCT = {"serve-hot": 40.0, "serve-cold": 5.0,
                          "sweep-saturated": 5.0, "sweep-queued": 5.0}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_account_for_end_to_end_time(tmp_path, workload):
    _, line = _smoke(tmp_path, workload, 1)
    _assert_metrics(line, CONFIG["per_layer"])
    unattributed = line["metrics"]["bench.unattributed_pct"]["value"]
    assert unattributed <= UNATTRIBUTED_LIMIT_PCT[workload]
    breakdown = json.loads((tmp_path / f"{workload}.trace.json").read_text())
    assert breakdown["operations"] > 0 and breakdown["layers"]
    assert (tmp_path / f"{workload}.spans.jsonl").stat().st_size > 0


def test_self_time_excludes_children_and_sums_to_root():
    spans = [
        {"id": "1:1", "parent": None, "name": "cli.sweep", "start": 0.0,
         "end": 10.0, "op": None},
        {"id": "1:2", "parent": "1:1", "name": "a", "start": 1.0,
         "end": 5.0, "op": None},
        {"id": "1:3", "parent": "1:1", "name": "a", "start": 4.0,
         "end": 6.0, "op": None},   # overlaps its sibling (another thread)
        {"id": "1:4", "parent": "1:2", "name": "b", "start": 2.0,
         "end": 3.0, "op": None, "slots": 7},
    ]
    bd = layers.breakdown(spans, [spans[0]])
    assert bd["layers"]["cli.sweep"] == {"self_s": 5.0, "calls": 1}
    assert bd["layers"]["a"] == {"self_s": 5.0, "calls": 2}
    assert bd["layers"]["b"] == {"self_s": 1.0, "calls": 1}
    assert bd["e2e_s"] == 10.0 and bd["slots"] == 7
    # Half the root's time is its own, which the smoke test's limit
    # rejects.  The overlapping siblings count in full, so the named
    # layers' share is 60%, not the 50% left over.
    assert bd["root_self_s"] == 5.0
    metrics = workloads.layer_metrics(bd, 1)
    assert metrics["bench.layer_share_sum_pct"] == 60.0
    assert metrics["bench.unattributed_pct"] == 50.0
    assert metrics["bench.unattributed_pct"] > max(
        UNATTRIBUTED_LIMIT_PCT.values())


def _probe_file(path: Path, ms: float, times: range) -> Path:
    path.write_text("".join(f"{t / 100:.6f} {round(ms * 1e6)}\n"
                            for t in times))
    return path


def test_speed_scales_by_each_cpus_median_probe_time(tmp_path):
    """A CPU at half the reference speed counts half; the CPUs are
    averaged, and a run pinned to some CPUs reads only theirs."""
    at_ref = _probe_file(tmp_path / "0", speed.REFERENCE_MS, range(300))
    halved = _probe_file(tmp_path / "1", 2 * speed.REFERENCE_MS, range(300))
    with open(halved, "a") as fh:
        fh.write("3.01")               # a probe killed mid-line
    both = speed.Speed({0: at_ref, 1: halved})
    assert both.factor(1.0, 1.5) == pytest.approx(0.75)
    assert both.scale(0.5, 2.75) == pytest.approx(0.75 * 2.25)
    assert speed.Speed({0: at_ref, 1: halved}, {1}).scale(0.5, 2.75) \
        == pytest.approx(0.5 * 2.25)
    # Where a probe has no samples nearby, a wider window is read; with
    # none at all the run fails rather than report an unscaled time.
    sparse = speed.Speed({0: _probe_file(tmp_path / "2", 0.5,
                                         range(0, 300, 40))})
    assert sparse.factor(1.5, 1.5) == pytest.approx(speed.REFERENCE_MS / 0.5)
    with pytest.raises(RuntimeError):
        sparse.factor(100.0, 101.0)


def test_loop_wait_is_a_child_of_the_connection_handler():
    """A handler the loop creates now and runs later starts its span at
    creation; the wait until it ran is a child span."""
    recorder = layers.Recorder()

    async def handle(reader, writer):
        await asyncio.sleep(0)

    async def main():
        coro = recorder.wrap("serve.server.request", handle)(None, None)
        await asyncio.sleep(0.05)
        await coro

    asyncio.run(main())
    wait, request = sorted(recorder.spans, key=lambda s: s["name"])
    assert request["name"] == "serve.server.request"
    assert wait["name"] == "serve.server.loop_wait"
    assert wait["parent"] == request["id"]
    assert wait["start"] == request["start"]
    assert wait["end"] - wait["start"] >= 0.05
    bd = layers.breakdown(recorder.spans, [request])
    assert bd["layers"]["serve.server.loop_wait"]["self_s"] >= 0.05
    assert bd["root_self_s"] < 0.05


def test_client_span_adopts_server_request_by_trace_id():
    client = {"id": "client-e2e-0", "parent": None,
              "name": "serve.client.request", "start": 0.0, "end": 4.0,
              "op": "e2e-0"}
    spans = [
        {"id": "9:1", "parent": None, "name": "serve.server.request",
         "start": 1.0, "end": 3.0, "op": None},
        {"id": "9:2", "parent": "9:1", "name": "serve.coalesce.run",
         "start": 1.5, "end": 2.5, "op": "e2e-0"},
    ]
    bd = layers.breakdown(spans, [client])
    assert {name: e["self_s"] for name, e in bd["layers"].items()} == {
        "serve.client.request": 2.0, "serve.server.request": 1.0,
        "serve.coalesce.run": 1.0}


def test_exits_nonzero_without_the_program(tmp_path):
    """A checkout holding only the benchmark must fail without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work",
                                                  "results"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
