"""The shipped validators, pinned verdict by verdict on committed fixtures.

``tests/data/wire/`` holds good and bad documents of every wire format a
``tools/validate_*.py`` script checks: metrics snapshots (with
exemplars), SLO reports, metrics histories, bench histories, span dumps,
sweep rows and collapsed profiles.  ``verdicts.json`` records, for each
invocation, the exit code and every stdout/stderr line the tool prints
when run from that directory.  A change to what any tool accepts,
rejects or says shows up here line by line.

After a deliberate change to a verdict, rewrite the manifest with::

    PYTHONPATH=src python tests/test_validator_tools.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
WIRE = Path(__file__).resolve().parent / "data" / "wire"
VERDICTS = WIRE / "verdicts.json"

_modules: dict[str, object] = {}


def _tool(name: str):
    """``tools/<name>.py`` loaded as a module (cached)."""
    if name not in _modules:
        spec = importlib.util.spec_from_file_location(name,
                                                      TOOLS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _modules[name] = module
    return _modules[name]


def _run(tool: str, args: list[str]) -> dict:
    """Exit code and output lines of one in-process run from ``WIRE``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _tool(tool).main(list(args))
    return {"exit": code, "stdout": out.getvalue().splitlines(),
            "stderr": err.getvalue().splitlines()}


def _cases() -> list[dict]:
    return json.loads(VERDICTS.read_text())


def _case_id(case: dict) -> str:
    return f"{case['tool']}:{'+'.join(case['args']) or 'no-args'}"


@pytest.mark.parametrize("case", _cases(), ids=_case_id)
def test_tool_verdict_is_pinned(case, monkeypatch):
    monkeypatch.chdir(WIRE)
    got = _run(case["tool"], case["args"])
    assert got == {k: case[k] for k in ("exit", "stdout", "stderr")}


@pytest.mark.parametrize("tool, good, bad", [
    ("validate_metrics", "snapshot_exemplars.json", "snapshot_bad.json"),
    ("validate_trace", "spans.jsonl", "spans_cycle.jsonl"),
    ("validate_sweep", "sweep_rows.jsonl", "sweep_rows_bad.jsonl"),
])
def test_tool_runs_as_ci_calls_it(tool, good, bad):
    # CI runs the tools by path, without PYTHONPATH=src.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    pinned = {(c["tool"], tuple(c["args"])): c for c in _cases()}
    for fixture, code in ((good, 0), (bad, 1)):
        proc = subprocess.run(
            [sys.executable, str(TOOLS / f"{tool}.py"), fixture], cwd=WIRE,
            env=env, capture_output=True, text=True, timeout=120)
        case = pinned[(tool, (fixture,))]
        assert proc.returncode == code == case["exit"], proc.stderr
        assert proc.stdout.splitlines() == case["stdout"]
        assert proc.stderr.splitlines() == case["stderr"]


if __name__ == "__main__":  # rewrite the manifest from the current tools
    os.chdir(WIRE)
    cases = [dict(case, **_run(case["tool"], case["args"]))
             for case in _cases()]
    VERDICTS.write_text(json.dumps(cases, indent=1) + "\n")
