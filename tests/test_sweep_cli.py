"""The ``repro sweep`` command and the sweep-output validator.

The golden files under ``tests/data/`` pin the CLI's output contract:
``sweep_golden.jsonl`` is the byte-exact JSONL that the spec in
``sweep_golden_spec.jsonl`` must produce on any machine, worker count or
resume history.  Regenerate (only after a deliberate schema bump) with::

    PYTHONPATH=src python -m repro sweep \\
        -i tests/data/sweep_golden_spec.jsonl \\
        -o tests/data/sweep_golden.jsonl
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults import FaultPlan
from repro.analysis.sweeps import ShardTask, SweepRunner, SweepSpec
from repro.analysis.sweeps import validate_row as validate
from repro.analysis.sweeps import validate_rows as validate_lines

DATA = Path(__file__).parent / "data"
GOLDEN_SPEC = DATA / "sweep_golden_spec.jsonl"
GOLDEN = DATA / "sweep_golden.jsonl"

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))
try:
    from validate_sweep import main as validate_main
finally:
    sys.path.pop(0)


def good_row() -> dict:
    return json.loads(GOLDEN.read_text().splitlines()[0])


class TestGolden:
    def test_cli_matches_golden_bytes(self, tmp_path):
        out = tmp_path / "out.jsonl"
        assert main(["sweep", "-i", str(GOLDEN_SPEC), "-o", str(out)]) == 0
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_golden_matches_golden_after_parallel_resume(self, tmp_path):
        out = tmp_path / "out.jsonl"
        ckpt = tmp_path / "ckpt"
        assert main(["sweep", "-i", str(GOLDEN_SPEC), "-o", str(out),
                     "--jobs", "2", "--shard-size", "1",
                     "--checkpoint-dir", str(ckpt)]) == 0
        assert out.read_bytes() == GOLDEN.read_bytes()
        # Drop one shard checkpoint and resume: still byte-identical.
        shards = sorted(ckpt.glob("*.jsonl"))
        assert len(shards) == 2
        shards[0].unlink()
        out2 = tmp_path / "out2.jsonl"
        assert main(["sweep", "-i", str(GOLDEN_SPEC), "-o", str(out2),
                     "--jobs", "2", "--shard-size", "1",
                     "--checkpoint-dir", str(ckpt), "--resume"]) == 0
        assert out2.read_bytes() == GOLDEN.read_bytes()

    def test_golden_passes_validator(self):
        assert validate_lines(GOLDEN.read_text()) == []

    def test_stdout_and_stdin_paths(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(GOLDEN_SPEC.read_text()))
        assert main(["sweep"]) == 0
        assert capsys.readouterr().out.encode() == GOLDEN.read_bytes()


class TestCliErrors:
    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(["sweep", "-i", str(GOLDEN_SPEC), "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_unreadable_input(self, capsys, tmp_path):
        assert main(["sweep", "-i", str(tmp_path / "missing.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_spec_line(self, capsys, tmp_path):
        spec = tmp_path / "spec.jsonl"
        spec.write_text('{"families": ["klingon"]}\n')
        assert main(["sweep", "-i", str(spec)]) == 2
        err = capsys.readouterr().err
        assert f"{spec}:1:" in err and "unknown family" in err

    def test_empty_input(self, capsys, tmp_path):
        spec = tmp_path / "spec.jsonl"
        spec.write_text("\n")
        assert main(["sweep", "-i", str(spec)]) == 2

    def test_bad_fault_plan(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"unknown_knob": 1}')
        assert main(["sweep", "-i", str(GOLDEN_SPEC),
                     "--fault-plan", str(plan)]) == 2

    def test_task_timeout_needs_a_pool(self, capsys, tmp_path):
        # An inline shard cannot be preempted: a timeout there would be
        # silently ignored, so the run is refused before any work.
        out = tmp_path / "out.jsonl"
        assert main(["sweep", "-i", str(GOLDEN_SPEC), "-o", str(out),
                     "--task-timeout", "5"]) == 2
        err = capsys.readouterr().err
        assert "task_timeout applies to pool workers" in err
        assert not out.exists()

    def test_failed_shard_exits_3(self, capsys, tmp_path):
        # Target an unretried crash at the first shard's digest.
        spec = SweepSpec.from_dict(
            json.loads(GOLDEN_SPEC.read_text().splitlines()[0]))
        points = spec.expand()
        digest = ShardTask(spec, (points[0],)).key()
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(FaultPlan(
            targeted_worker_faults=((digest, ("crash",) * 6),)).to_dict()))
        out = tmp_path / "out.jsonl"
        assert main(["sweep", "-i", str(GOLDEN_SPEC), "-o", str(out),
                     "--shard-size", "1", "--max-retries", "0",
                     "--fault-plan", str(plan)]) == 3
        assert "1 shards failed" in capsys.readouterr().err
        rows = [json.loads(line) for line in
                out.read_text().splitlines()]
        assert "error" in rows[0] and "metrics" in rows[1]

    def test_hung_shard_times_out_in_the_pool(self, capsys, tmp_path):
        """A pool worker that hangs is reclaimed at the per-shard timeout:
        its shard degrades to error rows, every other row is golden, and
        the run ends long before the hang would."""
        spec = SweepSpec.from_dict(
            json.loads(GOLDEN_SPEC.read_text().splitlines()[0]))
        digest = SweepRunner(spec, shard_size=1).run().shard_digests[0]
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(FaultPlan(
            hang_seconds=30,
            targeted_worker_faults=((digest, ("hang",)),)).to_dict()))
        out = tmp_path / "out.jsonl"
        start = time.monotonic()
        assert main(["sweep", "-i", str(GOLDEN_SPEC), "-o", str(out),
                     "--jobs", "2", "--shard-size", "1",
                     "--task-timeout", "1", "--max-retries", "0",
                     "--fault-plan", str(plan)]) == 3
        assert time.monotonic() - start < 15
        assert "1 shards failed" in capsys.readouterr().err
        golden = GOLDEN.read_text().splitlines()
        lines = out.read_text().splitlines()
        assert len(lines) == len(golden) == 2
        row = json.loads(lines[0])
        assert row["point"] == json.loads(golden[0])["point"]
        assert row["error"].startswith("shard timed-out: ")
        assert lines[1:] == golden[1:]


class TestValidator:
    def test_good_row(self):
        assert validate(good_row()) == []

    def test_error_row(self):
        row = good_row()
        del row["metrics"]
        row["error"] = "ValueError: boom"
        assert validate(row) == []

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda r: r.update(format="nope"), "'format'"),
        (lambda r: r.update(version=2), "'version'"),
        (lambda r: r.pop("point"), "missing 'point'"),
        (lambda r: r["point"].update(n="ten"), "point.n"),
        (lambda r: r["point"].update(seed=True), "point.seed"),
        (lambda r: r.update(error="also"), "exactly one"),
        (lambda r: r.pop("metrics"), "exactly one"),
        (lambda r: r["metrics"].pop("slots"), "metrics.slots: missing"),
        (lambda r: r["metrics"].update(duty_cycle="high"),
         "metrics.duty_cycle"),
        (lambda r: r["metrics"].update(slots=None), "metrics.slots"),
    ])
    def test_mutations_are_caught(self, mutate, fragment):
        row = good_row()
        mutate(row)
        problems = validate(row)
        assert problems and any(fragment in p for p in problems), problems

    def test_null_latency_is_allowed(self):
        row = good_row()
        row["metrics"]["mean_latency_slots"] = None
        assert validate(row) == []

    def test_non_object_row(self):
        assert validate([1, 2]) == ["row must be a JSON object, got list"]

    def test_lines_blank_and_unparseable(self):
        text = "\nnot json\n"
        problems = validate_lines(text)
        assert problems[0] == "line 1: blank line"
        assert problems[1].startswith("line 2: unparseable")

    def test_main_exit_codes(self, tmp_path, capsys):
        assert validate_main([str(GOLDEN)]) == 0
        assert "valid (2 rows, 0 error rows)" in capsys.readouterr().out
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format": "nope"}\n')
        assert validate_main([str(bad)]) == 1
        assert validate_main([str(tmp_path / "gone.jsonl")]) == 2
        assert validate_main([]) == 2
