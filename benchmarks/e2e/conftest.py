"""pytest plumbing for the end-to-end benchmark's own smoke test.

``benchmarks/conftest.py`` times every test under ``benchmarks/`` and
writes a ``repro-bench-summary`` sidecar into ``benchmarks/results/``.
The smoke test checks the benchmark rather than measuring the program,
so this directory overrides that autouse fixture with one that records
nothing.  The benchmark's modules import the program from ``src/``, as
``run.py`` arranges for them.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))


@pytest.fixture(autouse=True)
def _json_summary():
    """No sidecar for the smoke test."""
    yield
