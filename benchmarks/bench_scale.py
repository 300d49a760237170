"""Practical envelope: how far the library scales.

Measures the cost of each pipeline stage as ``n`` grows — substrate
construction, the Figure 2 conversion, the exact transparency decision
(small/medium n), the sampled refuter (large n), and raw simulation slot
throughput — so a user can budget before committing to a class size.
"""

import numpy as np
import pytest

from repro.core.construction import construct
from repro.core.nonsleeping import polynomial_schedule
from repro.core.transparency import is_topology_transparent
from repro.service.api import ProvisionRequest, provision_batch
from repro.service.store import ScheduleStore
from repro.simulation.engine import Simulator
from repro.simulation.topology import grid
from repro.simulation.traffic import SaturatedTraffic


@pytest.mark.parametrize("n", [64, 125, 343, 729])
def test_substrate_construction_scale(benchmark, n):
    sched = benchmark(lambda: polynomial_schedule(n, 3))
    assert sched.n == n


@pytest.mark.parametrize("n", [64, 216, 512])
def test_figure2_scale(benchmark, n):
    d = 3
    source = polynomial_schedule(n, d)
    built = benchmark(lambda: construct(source, d, 4, max(8, n // 8)))
    assert built.is_alpha_schedule(4, max(8, n // 8))


@pytest.mark.parametrize("n", [16, 36, 64])
def test_exact_decision_scale(benchmark, n):
    sched = polynomial_schedule(n, 2)
    assert benchmark.pedantic(lambda: is_topology_transparent(sched, 2),
                              rounds=2, iterations=1)


@pytest.mark.parametrize("n", [125, 343])
def test_sampled_refuter_scale(benchmark, n):
    sched = polynomial_schedule(n, 3)
    rng = np.random.default_rng(0)
    assert benchmark.pedantic(
        lambda: is_topology_transparent(sched, 3, method="sampled",
                                        samples=300, rng=rng),
        rounds=2, iterations=1)


@pytest.mark.parametrize("n", [12, 16, 20])
def test_planner_warm_cache_scale(benchmark, n, tmp_path):
    """The service layer's promise: a repeated plan is a store lookup.

    Prime a schedule store with one full budget search, then measure the
    warm path — it must return the identical plan without constructing.
    """
    store = ScheduleStore(tmp_path / "cache")
    request = [ProvisionRequest(n, 2, 0.5)]
    cold, = provision_batch(request, store=store)
    warm, = benchmark(
        lambda: provision_batch(request,
                                store=ScheduleStore(store.cache_dir)))
    assert warm.from_cache and warm.plan == cold.plan
    assert store.stats.stores > 0


@pytest.mark.parametrize("side", [10, 15, 20])
def test_simulation_slot_rate(benchmark, side):
    n = side * side
    d = 4
    topo = grid(side, side)
    sched = construct(polynomial_schedule(n, d), d, 5, max(10, n // 5))

    def run_one_frame():
        sim = Simulator(topo, sched, SaturatedTraffic(topo))
        sim.run_slots(min(200, sched.frame_length))
        return sim

    sim = benchmark.pedantic(run_one_frame, rounds=2, iterations=1)
    assert sim.metrics.slots > 0
