"""Shared analysis utilities and per-artefact experiment entry points.

* :mod:`repro.analysis.tables` — lightweight ASCII/CSV result tables;
* :mod:`repro.analysis.sweeps` — the sharded, resumable sweep engine
  (``SweepSpec`` / ``SweepRunner``);
* :mod:`repro.analysis.experiments` — one function per paper artefact
  (Figure 1, Theorems 1-4 and 6-9, plus the simulation studies), shared
  by the benchmark harness under ``benchmarks/`` and the examples.
"""

from repro.analysis.tables import Table
from repro.analysis.sweeps import (
    SweepPoint,
    SweepResult,
    SweepRunner,
    SweepSpec,
)

__all__ = ["Table", "SweepSpec", "SweepPoint", "SweepRunner",
           "SweepResult"]
