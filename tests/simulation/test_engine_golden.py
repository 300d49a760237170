"""SHA-256 pins of the simulator's full state after runs a sweep spec
cannot express: capture, clock drift, injected faults, idle listening,
instrumented runs and runs that stop mid-frame.

Each digest covers every counter the engine keeps — per-link attempts
and successes, per-receiver collisions, latencies in delivery order,
drops, link losses, down slots, the packets still queued, per-state slot
counts, wakeups, per-node energy as ``float.hex`` and the shared random
stream's position — so any change to the slot step's order of work
(capture draws, forwarding, float additions) shows up here.  They were
recorded before the slot step was rewritten.
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


def state_digest(sim: Simulator) -> str:
    text = json.dumps(state_document(sim), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _grid_capture(sat: bool):
    topo = grid(5, 5)
    rng = np.random.default_rng(41)
    traffic = SaturatedTraffic(topo) if sat else PoissonTraffic(topo, 0.1, rng)
    sim = Simulator(topo, polynomial_schedule(25, 4), traffic,
                    capture_probability=0.5, rng=rng, instrument=False)
    sim.run(20)
    return sim


def _star_capture():
    topo = star(12, 11)
    rng = np.random.default_rng(43)
    leaves = range(1, 12)
    # Up to eight leaves talk at once while the hub listens.
    sched = Schedule.from_sets(
        12, tx_sets=[range(1, 7), range(4, 12), [0], range(1, 12, 2)],
        rx_sets=[[0], [0], leaves, [0]])
    sim = Simulator(topo, sched, PoissonTraffic(topo, 0.08, rng),
                    capture_probability=0.5, rng=rng, instrument=False)
    sim.run(150)
    return sim


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
    sim = Simulator(topo, sched, source, next_hops=hops, drift=drift,
                    rng=rng, instrument=False)
    sim.run(4)
    return sim


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
                    faults=plan, rng=rng, instrument=False)
    sim.run(60)
    return sim


def _idle_awake():
    topo = worst_case_regular(16, 4, seed=3)
    rng = np.random.default_rng(59)
    sched = construct(polynomial_schedule(16, 4), 4, 2, 6)
    sim = Simulator(topo, sched, PoissonTraffic(topo, 0.05, rng), rng=rng,
                    idle_transmitters_sleep=False, instrument=False)
    sim.run(6)
    return sim


def _instrumented():
    topo = grid(4, 4)
    rng = np.random.default_rng(61)
    sched = construct(polynomial_schedule(16, 4), 4, 2, 6)
    sim = Simulator(topo, sched, PeriodicSensingTraffic(topo, sink=5,
                                                         period=10),
                    next_hops=sink_tree(topo, 5), rng=rng,
                    registry=MetricsRegistry(),
                    faults=FaultPlan(seed=2, link_loss=0.2))
    sim.run(6)
    return sim


def _mid_frame():
    topo = worst_case_regular(20, 4, seed=11)
    rng = np.random.default_rng(67)
    sched = construct(polynomial_schedule(20, 4), 4, 2, 6)
    sim = Simulator(topo, sched, PoissonTraffic(topo, 0.05, rng), rng=rng,
                    instrument=False)
    sim.run_slots(5 * sched.frame_length + sched.frame_length // 3)
    return sim


def _everything():
    topo = worst_case_regular(24, 4, seed=13)
    rng = np.random.default_rng(71)
    sched = construct(polynomial_schedule(24, 4), 4, 2, 6)
    sim = Simulator(topo, sched, PeriodicSensingTraffic(topo, sink=0,
                                                         period=9),
                    next_hops=sink_tree(topo, 0), rng=rng,
                    drift=ClockDrift.uniform(24, 1, np.random.default_rng(72)),
                    faults=FaultPlan(seed=4, node_crash_rate=0.005,
                                     node_recover_rate=0.05, link_loss=0.1),
                    capture_probability=0.5, queue_limit=4,
                    idle_transmitters_sleep=False, instrument=False)
    sim.run_slots(3000)
    return sim


CASES = {
    "capture-poisson": lambda: _grid_capture(sat=False),
    "capture-saturated": lambda: _grid_capture(sat=True),
    "capture-star-hub": _star_capture,
    "drift-saturated": lambda: _drift("saturated"),
    "drift-poisson": lambda: _drift("poisson"),
    "drift-sensing": lambda: _drift("sensing"),
    "faults-saturated": lambda: _faults("saturated"),
    "faults-sensing": lambda: _faults("sensing"),
    "idle-listening": _idle_awake,
    "instrumented": _instrumented,
    "mid-frame": _mid_frame,
    "everything": _everything,
}

DIGESTS = {
    "capture-poisson": "4c5841cef3788bf5839b5467e0aa0c418ffe401a4419785ad9618eed84b0f70c",
    "capture-saturated": "7df88cbb1546fe9aa46231434453bd538318a1c9304d2f66e258e7a8792b780e",
    "capture-star-hub": "00b488b6875ba008bcc94cefe81e31e817791f64559e608a166f84024e17151b",
    "drift-poisson": "6a30707bda90f8dd664f58990134dfae0fe68dd2b920809b6f262507710e54bf",
    "drift-saturated": "396215fcd87f129b3830cb9162fcbf3742da2b23118c25b17aa1deaf71705fc3",
    "drift-sensing": "0fa588d22835add867a438a68d6f58fd84ad6ba09ca3f9ca93d0bc9511675810",
    "everything": "002dfc863aa16dbdcf72341d31159f3c2e03e4bfb147b475977b2a97f46045c3",
    "faults-saturated": "43a8c64c6f5baded21f9a6d20a384f727647ec5162f809deaf76301f9899955b",
    "faults-sensing": "91e90ca1afc3e64778f4593480b0ecc1ea44389624abfdfb148e1981c12037aa",
    "idle-listening": "f449cdffc51002c0dfa38074abc4802f2deb9daa2df6465e9420cd66ab6ed8b9",
    "instrumented": "d65397803a817b573693c4e855b7f82ea6efe63c58e7291631595771fe188357",
    "mid-frame": "6722bc2f98d695fdfb92878f380557353e30ce5ce63f4e483b38e01f860b2d41",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_state_digest(case):
    assert state_digest(CASES[case]()) == DIGESTS[case]
