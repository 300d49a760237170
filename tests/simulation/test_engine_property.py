"""Property suites for the simulator's two exact fast paths.

* :func:`test_vectorized_equals_scalar_equals_theory` — ~200 randomized
  saturated cases (seeded stdlib :mod:`random`) over random topologies
  in ``N_n^D`` and random valid schedules.  The per-frame per-link
  success counts of the vectorized kernel must equal the analytic
  ``|T(x, y, S)|`` of :func:`repro.core.throughput.guaranteed_slots`
  with ``S`` the receiver's true other neighbours — the paper's
  theory/simulation bridge (experiment E8) — and the original scalar
  slot step (:func:`tests.simulation.scalar_reference.slow_slot_step`),
  dictionary for dictionary, energy cell for energy cell.
* :func:`test_step_equals_scalar_reference` — Hypothesis draws in-class
  topologies, random and duty-cycled schedules, all three traffics,
  clock drift, fault plans and watched or unwatched runs;
  :meth:`Simulator.run_slots` must leave exactly the state the original
  scalar step leaves, energy equal bit for bit.

Marked ``slow``: the fast tier (``-m "not slow"``) skips them, CI's full
matrix runs them.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construction import construct
from repro.core.nonsleeping import polynomial_schedule
from repro.core.schedule import Schedule
from repro.core.throughput import guaranteed_slots
from repro.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.simulation.drift import ClockDrift
from repro.simulation.energy import RadioState
from repro.simulation.engine import Simulator
from repro.simulation.routing import sink_tree
from repro.simulation.topology import Topology
from repro.simulation.traffic import (
    PeriodicSensingTraffic,
    PoissonTraffic,
    SaturatedTraffic,
)
from tests.simulation.scalar_reference import assert_same_state, slow_slot_step

pytestmark = pytest.mark.slow

CASES_PER_SEED = 25
SEEDS = range(8)  # 8 * 25 = 200 randomized cases


def random_topology(n: int, d: int, rnd: random.Random) -> Topology:
    """A random member of ``N_n^D``: random edges, greedily degree-capped."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rnd.shuffle(pairs)
    degree = [0] * n
    edges = []
    for u, v in pairs:
        if rnd.random() < 0.4 and degree[u] < d and degree[v] < d:
            degree[u] += 1
            degree[v] += 1
            edges.append((u, v))
    return Topology.from_edges(n, edges)


def random_schedule(n: int, length: int, rnd: random.Random) -> Schedule:
    """A random valid schedule: each node transmits, listens or sleeps."""
    tx, rx = [], []
    for _ in range(length):
        t = r = 0
        for x in range(n):
            u = rnd.random()
            if u < 1 / 3:
                t |= 1 << x
            elif u < 2 / 3:
                r |= 1 << x
        tx.append(t)
        rx.append(r)
    return Schedule(n, tuple(tx), tuple(rx))


@pytest.mark.parametrize("seed", SEEDS)
def test_vectorized_equals_scalar_equals_theory(seed):
    rnd = random.Random(0xE8_000 + seed)
    for _ in range(CASES_PER_SEED):
        n = rnd.randint(2, 22)
        d = rnd.randint(1, max(1, n - 1))
        length = rnd.randint(1, 14)
        frames = rnd.randint(1, 4)
        topo = random_topology(n, d, rnd)
        sched = random_schedule(n, length, rnd)
        case = f"seed={seed} n={n} d={d} L={length} frames={frames}"

        fast = Simulator(topo, sched, SaturatedTraffic(topo))
        assert fast._vector_eligible, case
        mf = fast.run(frames)

        # Theory: per-frame per-link successes are exactly |T(x, y, S)|
        # with S the receiver's true other-neighbour set.
        for x, y in topo.directed_links():
            others = tuple(sorted(topo.neighbors(y) - {x}))
            analytic = guaranteed_slots(sched, x, y, others).bit_count()
            measured = mf.successes.get((x, y), 0)
            assert measured == frames * analytic, f"{case} link=({x},{y})"
        # No phantom success keys off the links.
        links = set(topo.directed_links())
        assert set(mf.successes) <= links, case

        # Scalar reference: byte-for-byte the same bookkeeping.
        slow = Simulator(topo, sched, SaturatedTraffic(topo))
        for _ in range(frames * length):
            slow_slot_step(slow)
        ms = slow.metrics
        assert dict(ms.attempts) == dict(mf.attempts), case
        assert dict(ms.successes) == dict(mf.successes), case
        assert dict(ms.collisions) == dict(mf.collisions), case
        assert ms.slots == mf.slots, case
        np.testing.assert_allclose(slow.energy.spent_mj,
                                   fast.energy.spent_mj, err_msg=case)
        for state in RadioState:
            assert (slow.energy.state_slots[state]
                    == fast.energy.state_slots[state]).all(), case
        assert (slow.energy.wakeups == fast.energy.wakeups).all(), case


@st.composite
def scenarios(draw):
    """A builder of identical simulators, and a slot count to run.

    Each build makes its own traffic and random stream, so two
    simulators share nothing but their inputs; it returns the simulator
    and that stream.
    """
    rnd = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=2, max_value=16))
        d = draw(st.integers(min_value=1, max_value=n - 1))
        sched = random_schedule(n, draw(st.integers(1, 12)), rnd)
    else:  # a Figure 2 construction: nodes sleep between their slots
        n = draw(st.integers(min_value=8, max_value=16))
        d = draw(st.integers(min_value=2, max_value=4))
        alpha_t = draw(st.integers(min_value=1, max_value=2))
        alpha_r = draw(st.integers(min_value=1, max_value=min(6, n - alpha_t)))
        sched = construct(polynomial_schedule(n, d), d, alpha_t, alpha_r)
    topo = random_topology(n, d, rnd)
    traffic = draw(st.sampled_from(["saturated", "poisson", "sensing"]))
    rate = draw(st.sampled_from([0.02, 0.1, 0.4]))
    sink = draw(st.integers(min_value=0, max_value=n - 1))
    period = draw(st.integers(min_value=1, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    offsets = None
    if draw(st.booleans()):
        offsets = tuple(draw(st.lists(st.integers(-3, 3), min_size=n,
                                      max_size=n)))
    faults = None
    if draw(st.booleans()):
        faults = FaultPlan(
            seed=draw(st.integers(0, 99)),
            node_crash_rate=draw(st.sampled_from([0.0, 0.02])),
            node_recover_rate=draw(st.sampled_from([0.0, 0.2])),
            link_loss=draw(st.sampled_from([0.0, 0.3])),
            node_outages=tuple(draw(st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, 40),
                          st.sampled_from([None, 60])),
                max_size=2))))
    queue_limit = draw(st.sampled_from([1, 3, 64]))
    watched = draw(st.booleans())
    slots = draw(st.integers(min_value=1,
                             max_value=min(3 * sched.frame_length, 300)))

    def build() -> tuple[Simulator, np.random.Generator]:
        rng = np.random.default_rng(seed)
        hops = None
        if traffic == "saturated":
            source = SaturatedTraffic(topo)
        elif traffic == "poisson":
            source = PoissonTraffic(topo, rate, rng)
        else:
            source = PeriodicSensingTraffic(topo, sink=sink, period=period)
            hops = sink_tree(topo, sink)
        drift = ClockDrift(offsets) if offsets is not None else None
        sim = Simulator(topo, sched, source, next_hops=hops, drift=drift,
                        faults=faults, queue_limit=queue_limit,
                        registry=MetricsRegistry() if watched else None)
        return sim, rng

    return build, slots


@given(case=scenarios())
@settings(max_examples=150, deadline=None)
def test_step_equals_scalar_reference(case):
    build, slots = case
    (sparse, sparse_rng), (reference, reference_rng) = build(), build()
    sparse.run_slots(slots)
    for _ in range(slots):
        slow_slot_step(reference)
    assert_same_state(sparse, sparse_rng, reference, reference_rng)
