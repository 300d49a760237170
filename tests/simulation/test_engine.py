"""The slot-synchronous engine: collision model, queues, energy, drift."""

import itertools

import numpy as np
import pytest

from repro.core.construction import construct
from repro.core.nonsleeping import polynomial_schedule, tdma_schedule
from repro.core.schedule import Schedule
from repro.core.throughput import guaranteed_slots
from repro.obs.metrics import MetricsRegistry
from repro.simulation import engine
from repro.simulation.drift import ClockDrift
from repro.simulation.energy import RadioState
from repro.simulation.engine import Simulator
from repro.simulation.routing import sink_tree
from repro.simulation.topology import Topology, grid, ring, star, worst_case_regular
from repro.simulation.traffic import (
    PeriodicSensingTraffic,
    PoissonTraffic,
    SaturatedTraffic,
)


class TestSaturatedMode:
    """Experiment E8's bridge: simulation == analysis, slot for slot."""

    @pytest.mark.parametrize("n,d,seed", [(10, 3, 0), (12, 4, 1), (14, 2, 2)])
    def test_per_link_successes_match_theory_nonsleeping(self, n, d, seed):
        topo = worst_case_regular(n, d, seed=seed)
        sched = polynomial_schedule(n, d)
        sim = Simulator(topo, sched, SaturatedTraffic(topo))
        frames = 2
        m = sim.run(frames=frames)
        for x, y in topo.directed_links():
            s = tuple(sorted(topo.neighbors(y) - {x}))
            analytic = guaranteed_slots(sched, x, y, s).bit_count()
            assert m.successes.get((x, y), 0) == frames * analytic

    def test_per_link_successes_match_theory_duty_cycled(self):
        n, d = 10, 3
        topo = worst_case_regular(n, d, seed=5)
        sched = construct(polynomial_schedule(n, d), d, 3, 5)
        sim = Simulator(topo, sched, SaturatedTraffic(topo))
        m = sim.run(frames=1)
        for x, y in topo.directed_links():
            s = tuple(sorted(topo.neighbors(y) - {x}))
            analytic = guaranteed_slots(sched, x, y, s).bit_count()
            assert m.successes.get((x, y), 0) == analytic

    def test_every_link_served_each_frame(self):
        """Topology transparency, observed: every link succeeds >= 1 per frame."""
        n, d = 9, 2
        topo = ring(n)
        sched = construct(polynomial_schedule(n, d), d, 2, 4)
        sim = Simulator(topo, sched, SaturatedTraffic(topo))
        m = sim.run(frames=1)
        for x, y in topo.directed_links():
            assert m.successes.get((x, y), 0) >= 1

    def test_collisions_recorded_at_hub(self):
        # Star with all leaves transmitting at once: the hub must log
        # collisions whenever >= 2 leaves share a slot.
        n = 5
        topo = star(n, 4)
        sched = Schedule.non_sleeping(n, [[1, 2, 3, 4]])
        sim = Simulator(topo, sched, SaturatedTraffic(topo))
        m = sim.run(frames=3)
        assert m.collisions[0] == 3  # hub collides in every slot
        assert m.successes.get((1, 0), 0) == 0


class TestQueuedMode:
    def test_packet_conservation(self):
        topo = grid(3, 3)
        sched = tdma_schedule(9)
        rng = np.random.default_rng(7)
        sim = Simulator(topo, sched, PoissonTraffic(topo, 0.05, rng))
        m = sim.run(frames=30)
        assert m.generated == m.delivered + m.dropped + sim.pending_packets

    def test_single_hop_delivery(self):
        topo = ring(4)
        sched = tdma_schedule(4)
        traffic = PeriodicSensingTraffic(topo, sink=0, period=40)
        sim = Simulator(topo, sched, traffic, next_hops=sink_tree(topo, 0))
        m = sim.run(frames=30)
        assert m.delivered > 0
        assert m.delivery_ratio() > 0.9

    def test_multi_hop_latency_reflects_hops(self):
        # A 1x6 line: node 5's reports must traverse 5 hops to sink 0.
        topo = grid(1, 6)
        sched = tdma_schedule(6)
        traffic = PeriodicSensingTraffic(topo, sink=0, period=120)
        sim = Simulator(topo, sched, traffic, next_hops=sink_tree(topo, 0))
        m = sim.run(frames=60)
        assert m.delivered > 0
        assert min(m.latencies) >= 1
        # 5 hops at >= 1 slot each for the farthest node.
        assert max(m.latencies) >= 5

    def test_queue_limit_drops(self):
        topo = star(3, 2)
        # A schedule in which nobody ever listens: queues can only grow.
        sched = Schedule.from_sets(3, [[0], [1], [2]], [[], [], []])
        rng = np.random.default_rng(1)
        sim = Simulator(topo, sched, PoissonTraffic(topo, 0.9, rng),
                        queue_limit=2)
        m = sim.run(frames=40)
        assert m.dropped > 0
        assert all(len(q) <= 2 for q in sim.queues)

    def test_unroutable_packet_dropped(self):
        topo = Topology.from_edges(4, [(0, 1), (2, 3)])  # two components
        sched = tdma_schedule(4)
        traffic = PeriodicSensingTraffic(topo, sink=0, period=10)
        sim = Simulator(topo, sched, traffic, next_hops=sink_tree(topo, 0))
        m = sim.run(frames=5)
        assert m.dropped > 0  # nodes 2,3 cannot reach the sink

    def test_receiver_aware_waits(self):
        """A sender holds its packet until the next hop's listen slot."""
        topo = Topology.from_edges(2, [(0, 1)])
        # Node 1 listens only in slot 3; node 0 may transmit in all slots.
        sched = Schedule.from_sets(
            2, [[0], [0], [0], [0]], [[], [], [], [1]])
        traffic = PeriodicSensingTraffic(topo, sink=1, period=4)
        sim = Simulator(topo, sched, traffic, next_hops={0: 1})
        m = sim.run(frames=3)
        assert m.delivered > 0
        # All attempts must have happened in slot 3 (success each time).
        assert m.attempts[(0, 1)] == m.successes[(0, 1)]


class TestEnergyAccounting:
    def test_sleepers_pay_sleep(self):
        topo = ring(4)
        sched = Schedule.from_sets(4, [[0]], [[1]])  # 2,3 always sleep
        sim = Simulator(topo, sched, SaturatedTraffic(topo))
        sim.run(frames=10)
        assert sim.energy.state_slots[RadioState.SLEEP][2] == 10
        assert sim.energy.state_slots[RadioState.SLEEP][3] == 10
        assert sim.energy.state_slots[RadioState.TRANSMIT][0] == 10
        assert sim.energy.state_slots[RadioState.RECEIVE][1] == 10

    def test_idle_transmitter_policy(self):
        topo = ring(4)
        sched = Schedule.from_sets(4, [[0]], [[1]])
        rng = np.random.default_rng(0)
        # No packets ever: the transmit-eligible node sleeps, never idles.
        quiet = PoissonTraffic(topo, 1e-9, rng)
        sim = Simulator(topo, sched, quiet)
        sim.run(frames=5)
        assert sim.energy.state_slots[RadioState.SLEEP][0] == 5

    def test_awake_fraction_matches_schedule(self):
        topo = ring(6)
        sched = construct(polynomial_schedule(6, 2), 2, 2, 2)
        sim = Simulator(topo, sched, SaturatedTraffic(topo))
        sim.run(frames=2)
        # Under saturation every eligible node acts, so the awake fraction
        # equals the schedule's average duty cycle exactly.
        assert sim.energy.awake_fraction() == \
            pytest.approx(float(sched.average_duty_cycle()))


class TestDrift:
    def test_zero_drift_is_default(self):
        topo = ring(5)
        sched = tdma_schedule(5)
        sim = Simulator(topo, sched, SaturatedTraffic(topo))
        assert sim.drift.is_synchronous

    def test_drift_can_break_service(self):
        """With offsets beyond any guard, links may lose their guarantee."""
        n = 6
        topo = ring(n)
        sched = tdma_schedule(n)
        aligned = Simulator(topo, sched, SaturatedTraffic(topo))
        total_aligned = sum(aligned.run(frames=2).successes.values())
        shifted = Simulator(
            topo, sched, SaturatedTraffic(topo),
            drift=ClockDrift.uniform(n, 3, rng=np.random.default_rng(3)))
        total_shifted = sum(shifted.run(frames=2).successes.values())
        assert total_shifted < total_aligned


class TestCapture:
    def test_default_is_paper_model(self):
        # All leaves share every slot: a collision destroys every frame,
        # so the hub never hears anyone (the paper's model has no
        # capture), and each slot logs one collision.
        n = 5
        topo = star(n, 4)
        sched = Schedule.non_sleeping(n, [[1, 2, 3, 4]])
        m = Simulator(topo, sched, SaturatedTraffic(topo)).run(frames=4)
        assert sum(m.successes.get((x, 0), 0) for x in range(1, 5)) == 0
        assert m.total_collisions() == 4


class TestValidation:
    def test_schedule_must_cover_topology(self):
        with pytest.raises(ValueError, match="covers"):
            Simulator(ring(6), tdma_schedule(4), SaturatedTraffic(ring(6)))

    def test_run_parameters(self):
        sim = Simulator(ring(4), tdma_schedule(4), SaturatedTraffic(ring(4)))
        with pytest.raises(ValueError):
            sim.run(frames=0)
        with pytest.raises(ValueError):
            sim.run_slots(0)

    def test_slots_counted(self):
        sim = Simulator(ring(4), tdma_schedule(4), SaturatedTraffic(ring(4)))
        m = sim.run_slots(7)
        assert m.slots == 7


class TestObservability:
    def test_slots_per_second_gauge_reads_each_call(self, monkeypatch):
        # A clock that ticks one second per reading: each run call takes
        # one second whatever its length, and publishes once at its end.
        ticks = itertools.count()
        monkeypatch.setattr(engine, "perf_counter",
                            lambda: float(next(ticks)))
        registry = MetricsRegistry()
        sched = Schedule.non_sleeping(6, [[x] for x in range(6)] * 5)
        assert sched.frame_length == 30
        sim = Simulator(ring(6), sched, SaturatedTraffic(ring(6)),
                        registry=registry)

        def rate() -> float:
            gauge = registry.snapshot()["gauges"]["repro_sim_slots_per_second"]
            return gauge["series"][0]["value"]

        sim.run(4)
        assert rate() == 120.0
        sim.run_slots(30)
        assert rate() == 30.0
