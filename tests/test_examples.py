"""Examples don't rot: every script in examples/ runs end to end.

Each example must carry a module docstring and exit 0; the slowest,
environment_monitoring, takes about ten seconds.  Three also have their
printed results checked.  Runs are cached, so each script runs once.
"""

import ast
import functools
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"
SCRIPTS = sorted(p.name for p in EXAMPLES.glob("*.py"))


@functools.cache
def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=240,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("name", SCRIPTS)
def test_example_runs(name):
    run_example(name)


def test_all_examples_exist_and_have_docstrings():
    assert SCRIPTS
    for name in SCRIPTS:
        tree = ast.parse((EXAMPLES / name).read_text())
        assert ast.get_docstring(tree), f"{name} has no module docstring"


def test_quickstart():
    out = run_example("quickstart.py")
    assert "topology-transparent" in out
    assert "Optimality ratio: 1.000" in out


def test_schedule_planner():
    out = run_example("schedule_planner.py")
    assert "chosen family" in out
    assert "round-trip verified" in out


@pytest.mark.parametrize("name", ["duty_cycle_tradeoff.py"])
def test_tradeoff_example(name):
    out = run_example(name)
    assert "Theorem 8" in out
