"""The program never imports networkx; only the tests use it.

Every ``repro sweep`` pool worker imports the simulator at its first
point, and importing networkx there cost ~0.26 s per worker.  The
``D``-regular topologies are drawn in-repo now
(:func:`repro.simulation.topology.worst_case_regular`), so networkx is
a test dependency only.  The check runs in a fresh interpreter: the
test session itself imports networkx for the pairing property.
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
