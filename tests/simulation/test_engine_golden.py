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
paper's model.  All nine were re-recorded when the always-zero idle
column left the state counts; each new document with that column put
back hashes to the digest it replaces.
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
    "drift-poisson": "f3e53d4a9c2ce9b08a56b7e3a85ccfd1d18488d5486136c4eb9e8e19dfc254c9",
    "drift-saturated": "8ea44b9826acb66c69199b379985d342132cc2224f18bc2ce2e90552ab3a5ae6",
    "drift-sensing": "ebd7d0f54928704db4f6b0601ff0c181ad958dfd59d3694eea6cfff8e81155f9",
    "everything-paper-model": "03dda857dd348a54602c44d82305f5480fbe39cc075545cf219ee79d1978a92f",
    "faults-saturated": "5bbe796a71b79b584452bf6ee7f40c43cc41593da083b3ec2e2b1408bce0762b",
    "faults-sensing": "7542093bb78565892fcb2e8db291858baa1ffa26b83753636ab8bff0c0fd0c85",
    "instrumented": "797e6d1b1030331d9da13cce4f873e936d0faf2e9c333fba45d34dc57c7db7a6",
    "mid-frame": "047147218c9dd77f00941d44130210b524826e20bdd87904cdf2333f88a4667a",
    "star-hub": "c4381dcded7efaf368527affdb5f86f44bc635f7bfa29ce6f1ca29d8962e00cc",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_state_digest(case):
    assert state_digest(CASES[case]()) == DIGESTS[case]
