"""The program runs without its test-only dependencies.

Every ``repro sweep`` pool worker imports the simulator at its first
point, and importing networkx there cost ~0.26 s per worker.  The
``D``-regular topologies are drawn in-repo now
(:func:`repro.simulation.topology.worst_case_regular`), so networkx is
a test dependency only.  scipy is one too: only the replicated
experiment's t quantile and Welch's test need it, and
:mod:`repro.analysis.stats` imports it when they run.  The checks run in
a fresh interpreter: the test session itself imports both packages.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys

import repro
import repro.cli
import repro.serve.server
from repro.analysis.sweeps import SweepSpec, _evaluate_point

spec = SweepSpec(families=("polynomial",), ns=(16,), ds=(4,),
                 traffics=("poisson",), topology="regular", frames=2)
row = _evaluate_point(spec, spec.expand()[0])
assert "error" not in row, row
print("networkx" in sys.modules)
"""


def test_program_and_a_regular_sweep_point_never_import_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


SCIPY_BLOCKED = """
import sys

sys.modules["scipy"] = None  # every scipy import now raises ImportError

import repro.analysis.stats as stats

assert stats.t_confidence_interval([2.0, 2.0]).half_width == 0.0
try:
    stats.t_confidence_interval([1.0, 2.0])
except ImportError as exc:
    print(exc)
"""


def test_stats_imports_without_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "needs scipy" in result.stdout
