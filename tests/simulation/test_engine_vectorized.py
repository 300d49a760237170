"""The vectorized saturated-mode kernel against the slot step.

The kernel, which :meth:`Simulator.run` takes for every saturated,
synchronous, fault-free run, must be an *exact* replica of the slot
loop that :meth:`Simulator.run_slots` always runs — same metric
dictionaries, including which keys exist, and same energy accounting
down to the wakeup edges.  The randomized deep-dive lives in
``test_engine_property.py`` (slow tier); these are the fast, targeted
scenarios, the sweep-scale constructions (multi-byte masks, frames of
thousands of slots) and the contract that watching a run changes
nothing but the registry and tracer it is given.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.construction import construct
from repro.core.nonsleeping import polynomial_schedule, tdma_schedule
from repro.core.schedule import Schedule
from repro.faults import FaultPlan
from repro.obs.metrics import (
    CounterSeries,
    GaugeSeries,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from repro.obs.tracing import Tracer, default_tracer, set_default_tracer
from repro.simulation.drift import ClockDrift
from repro.simulation.energy import RadioState
from repro.simulation.engine import Simulator
from repro.simulation.topology import (
    Topology,
    grid,
    ring,
    star,
    worst_case_regular,
)
from repro.simulation.traffic import PoissonTraffic, SaturatedTraffic
from tests.simulation.scalar_reference import slow_slot_step, state_document


def _pair(topo, sched):
    """A (scalar, vectorized) simulator pair over the same scenario; the
    scalar one advances by :func:`_run_scalar`."""
    scalar = Simulator(topo, sched, SaturatedTraffic(topo))
    fast = Simulator(topo, sched, SaturatedTraffic(topo))
    assert fast._vector_eligible
    return scalar, fast


def _run_scalar(sim: Simulator, frames: int) -> None:
    """*frames* whole frames by the slot step, as ``run`` would."""
    sim.run_slots(frames * sim.schedule.frame_length)


def _assert_equal(scalar: Simulator, fast: Simulator) -> None:
    ms, mf = scalar.metrics, fast.metrics
    assert dict(ms.attempts) == dict(mf.attempts)
    assert dict(ms.successes) == dict(mf.successes)
    assert dict(ms.collisions) == dict(mf.collisions)
    assert ms.slots == mf.slots
    np.testing.assert_allclose(scalar.energy.spent_mj, fast.energy.spent_mj)
    for state in RadioState:
        assert (scalar.energy.state_slots[state]
                == fast.energy.state_slots[state]).all()
    assert (scalar.energy.wakeups == fast.energy.wakeups).all()
    assert list(scalar._was_awake) == list(fast._was_awake)


class TestExactEquivalence:
    def test_ring_tdma(self):
        topo = ring(8)
        scalar, fast = _pair(topo, tdma_schedule(8))
        _run_scalar(scalar, 3)
        fast.run(3)
        _assert_equal(scalar, fast)

    def test_star_collisions_and_key_presence(self):
        # All leaves transmit together: the hub sees pure collisions.  The
        # scalar path never creates zero-count success keys — neither may
        # the vectorized one.
        topo = star(5, 4)
        sched = Schedule.from_sets(
            5, tx_sets=[[1, 2, 3, 4], [0]], rx_sets=[[0], [1, 2, 3, 4]])
        scalar, fast = _pair(topo, sched)
        _run_scalar(scalar, 3)
        fast.run(3)
        _assert_equal(scalar, fast)
        assert fast.metrics.collisions[0] == 3
        assert (1, 0) not in fast.metrics.successes
        assert set(fast.metrics.successes) == {(0, y) for y in (1, 2, 3, 4)}

    def test_grid_duty_cycled_energy(self):
        topo = grid(3, 3)
        # A sparse schedule with sleep slots exercises wakeup accounting.
        sched = Schedule.from_sets(
            9,
            tx_sets=[[0, 4], [], [8], [2, 6]],
            rx_sets=[[1, 3, 5], [0], [5, 7], [1, 7]])
        scalar, fast = _pair(topo, sched)
        _run_scalar(scalar, 4)
        fast.run(4)
        _assert_equal(scalar, fast)

    def test_mid_frame_start_offset(self):
        # run_slots leaves the simulator mid-frame; the kernel must roll
        # the eligibility matrices to the true starting position.
        topo = ring(6)
        sched = Schedule.from_sets(
            6,
            tx_sets=[[0], [1, 4], [2], [3]],
            rx_sets=[[1, 5], [0, 2, 5], [1, 3], [2, 4]])
        scalar, fast = _pair(topo, sched)
        scalar.run_slots(3)
        fast.run_slots(3)
        _run_scalar(scalar, 2)
        fast.run(2)
        _assert_equal(scalar, fast)

    def test_single_frame_wakeups_use_history(self):
        topo = ring(4)
        sched = Schedule.from_sets(
            4, tx_sets=[[0], []], rx_sets=[[1], []])
        scalar, fast = _pair(topo, sched)
        _run_scalar(scalar, 1)
        fast.run(1)
        _assert_equal(scalar, fast)
        # Everyone woke at most once from the initial all-asleep state.
        assert int(fast.energy.wakeups.max()) <= 1


@pytest.fixture(scope="module")
def tdma_100():
    """The Figure 2 construction the sweeps run: L = 1700 over n = 100."""
    return construct(tdma_schedule(100), 4, 2, 6)


class TestSweepScale:
    """Kernel == scalar reference on real constructions at sweep size:
    13-byte masks, thousands of slots per frame, degree-0 nodes and a
    hub whose talker count overflows a byte."""

    def test_tdma_construction(self, tdma_100):
        assert tdma_100.frame_length == 1700
        topo = worst_case_regular(100, 4, seed=7)
        scalar, fast = _pair(topo, tdma_100)
        _run_scalar(scalar, 2)
        fast.run(2)
        _assert_equal(scalar, fast)

    def test_polynomial_construction(self):
        sched = construct(polynomial_schedule(70, 4), 4, 2, 6)
        assert sched.frame_length == 3564
        topo = worst_case_regular(70, 4, seed=7)
        scalar, fast = _pair(topo, sched)
        _run_scalar(scalar, 1)
        fast.run(1)
        _assert_equal(scalar, fast)

    def test_smaller_network_with_isolated_nodes(self, tdma_100):
        # 90 of the schedule's 100 nodes, and nodes 80-89 have no link.
        topo = Topology(90, worst_case_regular(80, 4, seed=7).edges)
        assert [topo.degree(x) for x in range(80, 90)] == [0] * 10
        scalar, fast = _pair(topo, tdma_100)
        _run_scalar(scalar, 1)
        fast.run(1)
        _assert_equal(scalar, fast)

    def test_mid_frame_start(self, tdma_100):
        topo = worst_case_regular(100, 4, seed=7)
        scalar, fast = _pair(topo, tdma_100)
        scalar.run_slots(850)
        fast.run_slots(850)
        _run_scalar(scalar, 1)
        fast.run(1)
        _assert_equal(scalar, fast)

    def test_hub_talker_count_past_a_byte(self):
        # 257 and 256 simultaneous talkers at the hub wrap to 1 and 0 in
        # an 8-bit count: a false clean reception and a lost collision.
        topo = star(300, 299)
        leaves = range(1, 300)
        sched = Schedule.from_sets(
            300, tx_sets=[range(1, 258), range(1, 257), [0], [1]],
            rx_sets=[[0], [0], leaves, [0]])
        scalar, fast = _pair(topo, sched)
        _run_scalar(scalar, 3)
        fast.run(3)
        _assert_equal(scalar, fast)
        assert fast.metrics.collisions[0] == 6
        assert set(fast.metrics.successes) \
            == {(1, 0)} | {(0, y) for y in leaves}


class TestEligibilityGate:
    def test_watched_runs_take_the_kernel_too(self):
        topo = ring(5)
        sim = Simulator(topo, tdma_schedule(5), SaturatedTraffic(topo),
                        registry=MetricsRegistry())
        assert sim._vector_eligible

    def test_ineligible_scenarios_fall_back(self):
        topo = ring(5)
        sched = tdma_schedule(5)
        rng = np.random.default_rng(0)
        ineligible = [
            Simulator(topo, sched, PoissonTraffic(topo, 0.05, rng)),
            Simulator(topo, sched, SaturatedTraffic(topo),
                      faults=FaultPlan(seed=1, link_loss=0.5)),
            Simulator(topo, sched, SaturatedTraffic(topo),
                      drift=ClockDrift(offsets=(0, 1, 0, 0, 0))),
        ]
        for sim in ineligible:
            assert not sim._vector_eligible
        # ...and a fallback run still works end to end.
        metrics = ineligible[0].run(2)
        assert metrics.slots == 2 * sched.frame_length


def _assert_untouched(registry: MetricsRegistry, tracer: Tracer) -> None:
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {}
    assert snapshot["gauges"] == {}
    assert tracer.spans == []
    assert default_registry() is registry
    assert default_tracer() is tracer


class TestUninstrumented:
    """A run without a registry touches neither registry nor tracer; a
    watched one records one ``sim.run`` span per call and changes no
    result."""

    @pytest.fixture()
    def fresh_defaults(self):
        registry, tracer = MetricsRegistry(), Tracer()
        old_registry = set_default_registry(registry)
        old_tracer = set_default_tracer(tracer)
        try:
            yield registry, tracer
        finally:
            set_default_registry(old_registry)
            set_default_tracer(old_tracer)

    def test_uninstrumented_run_touches_nothing(self, fresh_defaults):
        registry, tracer = fresh_defaults
        topo = ring(6)
        sim = Simulator(topo, tdma_schedule(6), SaturatedTraffic(topo))
        sim.run(3)
        _assert_untouched(registry, tracer)

    def test_uninstrumented_scalar_run_touches_nothing(self, fresh_defaults):
        registry, tracer = fresh_defaults
        topo = ring(6)
        rng = np.random.default_rng(0)
        sim = Simulator(topo, tdma_schedule(6), PoissonTraffic(topo, 0.2, rng))
        sim.run(2)
        sim.run_slots(3)
        _assert_untouched(registry, tracer)

    def test_instrumented_run_still_reports(self, fresh_defaults):
        # Each watched call publishes its own deltas once.
        registry, tracer = fresh_defaults
        topo = star(5, 4)
        sched = Schedule.from_sets(
            5, tx_sets=[[1, 2, 3, 4]], rx_sets=[[0]])
        sim = Simulator(topo, sched, SaturatedTraffic(topo),
                        registry=registry)
        sim.run(2)
        sim.run_slots(3)
        snapshot = registry.snapshot()
        collisions = snapshot["counters"]["repro_sim_collisions_total"]
        assert collisions["series"][0]["value"] == 5
        assert [(s.name, s.attrs) for s in tracer.spans] == [
            ("sim.run", {"slots": 2, "kernel": True}),
            ("sim.run", {"slots": 3, "kernel": False})]

    def test_watching_does_not_change_the_result(self, fresh_defaults,
                                                 monkeypatch):
        # The saturated grid-16 run that `repro simulate` watches in
        # tests/test_cli.py: 4 x 4 grid, the TDMA construction with
        # alpha_T = 2, alpha_R = 4 (L = 64), two frames.
        registry, tracer = fresh_defaults
        publications = []
        inc, set_value = CounterSeries.inc, GaugeSeries.set

        def counted_inc(series, amount=1.0):
            publications.append("inc")
            inc(series, amount)

        def counted_set(series, value):
            publications.append("set")
            set_value(series, value)

        monkeypatch.setattr(CounterSeries, "inc", counted_inc)
        monkeypatch.setattr(GaugeSeries, "set", counted_set)
        topo = grid(4, 4)
        sched = construct(tdma_schedule(16), 4, 2, 4)
        assert sched.frame_length == 64

        unwatched = Simulator(topo, sched, SaturatedTraffic(topo))
        unwatched.run(2)
        unwatched_publications = list(publications)
        unwatched_spans = list(tracer.spans)
        unwatched_snapshot = registry.snapshot()

        watch = MetricsRegistry()
        watched = Simulator(topo, sched, SaturatedTraffic(topo),
                            registry=watch)
        watched.run(2)
        rng = np.random.default_rng(0)  # saturated traffic draws nothing
        assert state_document(watched, rng) == state_document(unwatched, rng)
        assert np.array_equal(watched.energy.spent_mj,
                              unwatched.energy.spent_mj)

        # Unwatched: no registry, no tracer.
        assert unwatched_publications == [] and unwatched_spans == []
        assert unwatched_snapshot["counters"] == {}
        assert unwatched_snapshot["gauges"] == {}

        # One call: one kernel span, each series published once.
        assert [(s.name, s.attrs) for s in tracer.spans] \
            == [("sim.run", {"slots": 128, "kernel": True})]
        assert sorted(publications) == ["inc", "inc", "set"]
        snapshot = watch.snapshot()
        assert set(snapshot["counters"]) == {"repro_sim_collisions_total",
                                             "repro_sim_link_losses_total"}
        assert set(snapshot["gauges"]) == {"repro_sim_slots_per_second"}
        assert registry.snapshot()["counters"] == {}

    def test_slow_slot_step_is_the_scalar_reference(self):
        topo = ring(4)
        a = Simulator(topo, tdma_schedule(4), SaturatedTraffic(topo))
        b = Simulator(topo, tdma_schedule(4), SaturatedTraffic(topo))
        for _ in range(8):
            a.step()
            slow_slot_step(b)
        assert dict(a.metrics.successes) == dict(b.metrics.successes)
        assert a.metrics.slots == b.metrics.slots == 8
