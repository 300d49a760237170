"""Mobility models and schedule-invariant simulation across epochs."""

import dataclasses

import numpy as np
import pytest

from repro.core.construction import construct
from repro.core.nonsleeping import polynomial_schedule
from repro.faults import FaultPlan
from repro.simulation.engine import Simulator
from repro.simulation.metrics import Metrics
from repro.simulation.mobility import (
    EdgeChurnMobility,
    RandomWaypointMobility,
    run_with_mobility,
)
from repro.simulation.topology import grid
from repro.simulation.traffic import PeriodicSensingTraffic, SaturatedTraffic


class TestRandomWaypoint:
    def make(self, seed=0):
        return RandomWaypointMobility(n=12, d=3, radius=0.5, speed=0.1,
                                      rng=np.random.default_rng(seed))

    def test_snapshots_stay_in_class(self):
        mob = self.make()
        for topo in mob.trajectory(8):
            assert topo.n == 12
            assert topo.max_degree <= 3

    def test_positions_move(self):
        mob = self.make()
        before = mob._pos.copy()
        mob.step()
        assert not np.allclose(before, mob._pos)

    def test_positions_stay_in_unit_square(self):
        mob = self.make(seed=3)
        for _ in range(50):
            mob.step()
        assert (mob._pos >= 0).all() and (mob._pos <= 1).all()

    def test_topology_actually_changes(self):
        mob = RandomWaypointMobility(n=15, d=4, radius=0.35, speed=0.25,
                                     rng=np.random.default_rng(1))
        snaps = list(mob.trajectory(6))
        assert any(a.edges != b.edges for a, b in zip(snaps, snaps[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomWaypointMobility(n=12, d=3, radius=-1.0, speed=0.1,
                                   rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            self.make().trajectory(0).__next__()


class TestEdgeChurn:
    def test_stays_in_class(self):
        mob = EdgeChurnMobility(grid(3, 3), d=4, churn=2,
                                rng=np.random.default_rng(0))
        for topo in mob.trajectory(10):
            assert topo.max_degree <= 4

    def test_churn_changes_edges(self):
        mob = EdgeChurnMobility(grid(3, 3), d=4, churn=3,
                                rng=np.random.default_rng(1))
        before = mob.snapshot().edges
        mob.step()
        assert mob.snapshot().edges != before

    def test_zero_churn_is_static(self):
        mob = EdgeChurnMobility(grid(3, 3), d=4, churn=0,
                                rng=np.random.default_rng(0))
        before = mob.snapshot().edges
        mob.step()
        assert mob.snapshot().edges == before

    def test_out_of_class_input_rejected(self):
        from repro.simulation.topology import star

        with pytest.raises(ValueError):
            EdgeChurnMobility(star(6, 5), d=2, churn=1,
                              rng=np.random.default_rng(0))


class TestRunWithMobility:
    def test_transparency_holds_across_epochs(self):
        """The headline property: one schedule, every epoch's topology
        fully served (saturated traffic, every link >= 1 success/frame)."""
        n, d = 12, 3
        sched = construct(polynomial_schedule(n, d), d, 3, 6)
        mob = RandomWaypointMobility(n=n, d=d, radius=0.5, speed=0.2,
                                     rng=np.random.default_rng(5))
        frames_per_epoch = 1

        seen = []

        class Recorder:
            def __call__(self, topo):
                seen.append(topo)
                return SaturatedTraffic(topo)

        metrics = run_with_mobility(
            sched, Recorder(), mob, epochs=4,
            slots_per_epoch=frames_per_epoch * sched.frame_length)
        assert len(seen) == 4
        # Each epoch contributed its own links; check the merged successes
        # cover every link of every epoch's topology at least once.
        for topo in seen:
            for x, y in topo.directed_links():
                assert metrics.successes.get((x, y), 0) >= 1

    def test_convergecast_across_churn(self):
        n, d = 9, 4
        sched = construct(polynomial_schedule(n, d), d, 3, 4)
        mob = EdgeChurnMobility(grid(3, 3), d=d, churn=1,
                                rng=np.random.default_rng(2))
        metrics = run_with_mobility(
            sched,
            lambda topo: PeriodicSensingTraffic(topo, sink=0, period=300),
            mob, epochs=3, slots_per_epoch=900, sink=0)
        assert metrics.generated > 0
        assert metrics.delivered > 0
        assert metrics.slots == 2700

    def test_parameter_validation(self):
        sched = construct(polynomial_schedule(9, 2, q=3, k=1), 2, 2, 4)
        mob = EdgeChurnMobility(grid(3, 3), d=4, churn=1,
                                rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_with_mobility(sched, SaturatedTraffic, mob, epochs=0,
                              slots_per_epoch=10)

    def test_fault_counters_survive_the_merge(self):
        n, d = 16, 4
        sched = construct(polynomial_schedule(n, d), d, 2, 6)
        plan = FaultPlan(seed=3, link_loss=0.3, node_crash_rate=0.01,
                         node_recover_rate=0.1)

        def mobility():
            return EdgeChurnMobility(grid(4, 4), d=d, churn=2,
                                     rng=np.random.default_rng(8))

        merged = run_with_mobility(
            sched, SaturatedTraffic, mobility(), epochs=3,
            slots_per_epoch=sched.frame_length,
            simulator_kwargs={"faults": plan})
        epochs = [Simulator(topo, sched, SaturatedTraffic(topo), faults=plan)
                  .run_slots(sched.frame_length)
                  for topo in mobility().trajectory(3)]
        assert merged.link_losses == sum(m.link_losses for m in epochs) > 0
        assert merged.node_down_slots \
            == sum(m.node_down_slots for m in epochs) > 0


class TestMetricsMerge:
    def test_every_field_merges(self):
        # One distinct non-default value per field, whatever its type, so
        # a field the merge forgets keeps its default and fails here.
        def filled(k):
            m = Metrics()
            for i, f in enumerate(dataclasses.fields(Metrics), start=1):
                value = getattr(m, f.name)
                if isinstance(value, list):
                    value.extend([k * i, k * i + 1])
                elif isinstance(value, dict):
                    value[(k, i)] = k * i
                    value[(0, i)] = i
                else:
                    setattr(m, f.name, k * i)
            return m

        merged = filled(2)
        merged.merge(filled(3))
        for i, f in enumerate(dataclasses.fields(Metrics), start=1):
            value = getattr(merged, f.name)
            if isinstance(value, list):
                assert value == [2 * i, 2 * i + 1, 3 * i, 3 * i + 1], f.name
            elif isinstance(value, dict):
                assert dict(value) == {(2, i): 2 * i, (3, i): 3 * i,
                                       (0, i): 2 * i}, f.name
            else:
                assert value == 5 * i, f.name
