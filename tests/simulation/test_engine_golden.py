"""SHA-256 pins of the simulator's full state after runs a sweep spec
cannot express: clock drift, injected faults, watched runs, runs that
stop mid-frame, a hub under heavy contention and all of these at once.

Each digest covers every counter the engine keeps — per-link attempts
and successes, per-receiver collisions, latencies in delivery order,
drops, link losses, down slots, the packets still queued, per-state slot
counts, wakeups, per-node energy as ``float.hex`` and the position of
the random stream the case built — so any change to the slot step's
order of work (forwarding, float additions) shows up here.  They were
recorded before the slot step was rewritten.  The ``star-hub`` and
``everything-paper-model`` cases were recorded while the engine still
offered capture and idle-listening transmitters, options outside the
paper's model.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.construction import construct
from repro.core.nonsleeping import polynomial_schedule
from repro.core.schedule import Schedule
from repro.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.simulation.drift import ClockDrift
from repro.simulation.engine import Simulator
from repro.simulation.routing import sink_tree
from repro.simulation.topology import grid, star, unit_disk, worst_case_regular
from repro.simulation.traffic import (
    PeriodicSensingTraffic,
    PoissonTraffic,
    SaturatedTraffic,
)
from tests.simulation.scalar_reference import state_document


def state_digest(case: tuple[Simulator, np.random.Generator]) -> str:
    text = json.dumps(state_document(*case), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _star_hub():
    topo = star(12, 11)
    rng = np.random.default_rng(43)
    leaves = range(1, 12)
    # Up to eight leaves talk at once while the hub listens.
    sched = Schedule.from_sets(
        12, tx_sets=[range(1, 7), range(4, 12), [0], range(1, 12, 2)],
        rx_sets=[[0], [0], leaves, [0]])
    sim = Simulator(topo, sched, PoissonTraffic(topo, 0.08, rng))
    sim.run(150)
    return sim, rng


def _drift(traffic: str):
    topo = worst_case_regular(20, 4, seed=5)
    rng = np.random.default_rng(47)
    sched = construct(polynomial_schedule(20, 4), 4, 2, 6)
    drift = ClockDrift.uniform(20, 2, np.random.default_rng(48))
    hops = None
    if traffic == "saturated":
        source = SaturatedTraffic(topo)
    elif traffic == "poisson":
        source = PoissonTraffic(topo, 0.05, rng)
    else:
        source = PeriodicSensingTraffic(topo, sink=0, period=15)
        hops = sink_tree(topo, 0)
    sim = Simulator(topo, sched, source, next_hops=hops, drift=drift)
    sim.run(4)
    return sim, rng


def _faults(traffic: str):
    topo = unit_disk(25, 4, rng=np.random.default_rng(53))
    rng = np.random.default_rng(54)
    plan = FaultPlan(seed=9, node_crash_rate=0.01, node_recover_rate=0.1,
                     link_loss=0.3, node_outages=((3, 40, 400), (7, 0, None)))
    if traffic == "saturated":
        source, hops = SaturatedTraffic(topo), None
    else:
        source = PeriodicSensingTraffic(topo, sink=0, period=12)
        hops = sink_tree(topo, 0)
    sim = Simulator(topo, polynomial_schedule(25, 4), source, next_hops=hops,
                    faults=plan)
    sim.run(60)
    return sim, rng


def _instrumented():
    topo = grid(4, 4)
    rng = np.random.default_rng(61)
    sched = construct(polynomial_schedule(16, 4), 4, 2, 6)
    sim = Simulator(topo, sched, PeriodicSensingTraffic(topo, sink=5,
                                                         period=10),
                    next_hops=sink_tree(topo, 5),
                    registry=MetricsRegistry(),
                    faults=FaultPlan(seed=2, link_loss=0.2))
    sim.run(6)
    return sim, rng


def _mid_frame():
    topo = worst_case_regular(20, 4, seed=11)
    rng = np.random.default_rng(67)
    sched = construct(polynomial_schedule(20, 4), 4, 2, 6)
    sim = Simulator(topo, sched, PoissonTraffic(topo, 0.05, rng))
    sim.run_slots(5 * sched.frame_length + sched.frame_length // 3)
    return sim, rng


def _everything():
    topo = worst_case_regular(24, 4, seed=13)
    rng = np.random.default_rng(71)
    sched = construct(polynomial_schedule(24, 4), 4, 2, 6)
    sim = Simulator(topo, sched, PeriodicSensingTraffic(topo, sink=0,
                                                         period=9),
                    next_hops=sink_tree(topo, 0),
                    drift=ClockDrift.uniform(24, 1, np.random.default_rng(72)),
                    faults=FaultPlan(seed=4, node_crash_rate=0.005,
                                     node_recover_rate=0.05, link_loss=0.1),
                    queue_limit=4)
    sim.run_slots(3000)
    return sim, rng


CASES = {
    "star-hub": _star_hub,
    "drift-saturated": lambda: _drift("saturated"),
    "drift-poisson": lambda: _drift("poisson"),
    "drift-sensing": lambda: _drift("sensing"),
    "faults-saturated": lambda: _faults("saturated"),
    "faults-sensing": lambda: _faults("sensing"),
    "instrumented": _instrumented,
    "mid-frame": _mid_frame,
    "everything-paper-model": _everything,
}

DIGESTS = {
    "drift-poisson": "6a30707bda90f8dd664f58990134dfae0fe68dd2b920809b6f262507710e54bf",
    "drift-saturated": "396215fcd87f129b3830cb9162fcbf3742da2b23118c25b17aa1deaf71705fc3",
    "drift-sensing": "0fa588d22835add867a438a68d6f58fd84ad6ba09ca3f9ca93d0bc9511675810",
    "everything-paper-model": "a5de98430aba8e9fa351624b0e31e47bfe4bf746f07f728feed5fab07186450d",
    "faults-saturated": "43a8c64c6f5baded21f9a6d20a384f727647ec5162f809deaf76301f9899955b",
    "faults-sensing": "91e90ca1afc3e64778f4593480b0ecc1ea44389624abfdfb148e1981c12037aa",
    "instrumented": "d65397803a817b573693c4e855b7f82ea6efe63c58e7291631595771fe188357",
    "mid-frame": "6722bc2f98d695fdfb92878f380557353e30ce5ce63f4e483b38e01f860b2d41",
    "star-hub": "fbe9a2d7109a9ba53248a1ba473201e15a69e0f428aedca5dece1638dd3ff8ae",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_state_digest(case):
    assert state_digest(CASES[case]()) == DIGESTS[case]
