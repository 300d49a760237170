"""Slot-synchronous WSN simulator implementing the paper's system model.

The paper analyses schedules at the slot/collision abstraction of its
section 3: time is slotted, a node in ``T[i]`` may transmit in slot ``i``,
a node in ``R[i]`` listens, everyone else sleeps, and a reception succeeds
iff the receiver listens and **exactly one** of its neighbours transmits.
This subpackage is a from-scratch discrete-event simulator of exactly that
model, used to validate the throughput theory empirically (experiment E8)
and to run the energy/latency studies the introduction motivates (E9):

* :mod:`repro.simulation.topology` — generators for networks in ``N_n^D``;
* :mod:`repro.simulation.traffic` — saturated worst-case, Poisson and
  periodic-sensing traffic;
* :mod:`repro.simulation.energy` — per-slot radio energy accounting;
* :mod:`repro.simulation.engine` — the slot loop and collision resolution;
* :mod:`repro.simulation.metrics` — delivery, throughput and latency
  bookkeeping;
* :mod:`repro.simulation.routing` — BFS sink trees for convergecast;
* :mod:`repro.simulation.drift` — a bounded clock-drift probe for the
  paper's perfect-synchrony assumption.
"""

from repro.simulation.topology import Topology
from repro.simulation.traffic import (
    SaturatedTraffic,
    PoissonTraffic,
    PeriodicSensingTraffic,
)
from repro.simulation.energy import EnergyModel, EnergyAccount, RadioState
from repro.simulation.engine import Simulator, Packet
from repro.simulation.metrics import Metrics
from repro.simulation.routing import sink_tree
from repro.simulation.drift import ClockDrift

__all__ = [
    "Topology",
    "SaturatedTraffic",
    "PoissonTraffic",
    "PeriodicSensingTraffic",
    "EnergyModel",
    "EnergyAccount",
    "RadioState",
    "Simulator",
    "Packet",
    "Metrics",
    "sink_tree",
    "ClockDrift",
]
