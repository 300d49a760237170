"""Energy model and accounting."""

import pytest

from repro.simulation.energy import EnergyAccount, EnergyModel, RadioState


class TestModel:
    def test_default_ordering(self):
        m = EnergyModel()
        assert m.sleep_mj < m.tx_mj
        assert m.sleep_mj < m.rx_mj

    def test_cost_dispatch(self):
        m = EnergyModel(tx_mj=1.0, rx_mj=2.0, sleep_mj=0.5)
        assert m.cost(RadioState.TRANSMIT) == 1.0
        assert m.cost(RadioState.RECEIVE) == 2.0
        assert m.cost(RadioState.SLEEP) == 0.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(tx_mj=-1.0)


class TestAccount:
    def make(self, n=3):
        return EnergyAccount(n, EnergyModel(tx_mj=2.0, rx_mj=1.0,
                                            sleep_mj=0.0))

    def test_charge_accumulates(self):
        acc = self.make()
        acc.charge(0, RadioState.TRANSMIT)
        acc.charge(0, RadioState.RECEIVE)
        acc.charge(1, RadioState.SLEEP)
        assert acc.spent_mj[0] == 3.0
        assert acc.spent_mj[1] == 0.0
        assert acc.total_mj() == 3.0
        assert acc.state_slots[RadioState.TRANSMIT][0] == 1

    def test_awake_fraction(self):
        acc = self.make(2)
        acc.charge(0, RadioState.TRANSMIT)
        acc.charge(1, RadioState.SLEEP)
        acc.charge(0, RadioState.SLEEP)
        acc.charge(1, RadioState.RECEIVE)
        assert acc.awake_fraction() == 0.5

    def test_awake_fraction_empty(self):
        assert self.make().awake_fraction() == 0.0

    def test_jain_even(self):
        acc = self.make(4)
        for x in range(4):
            acc.charge(x, RadioState.TRANSMIT)
        assert acc.jain_fairness() == pytest.approx(1.0)

    def test_jain_skewed(self):
        acc = self.make(4)
        for _ in range(10):
            acc.charge(0, RadioState.TRANSMIT)
        assert acc.jain_fairness() == pytest.approx(0.25)

    def test_jain_zero_spend(self):
        assert self.make().jain_fairness() == 1.0

    def test_lifetime(self):
        acc = self.make(2)
        for _ in range(10):
            acc.charge(0, RadioState.TRANSMIT)  # 2 mJ/slot
            acc.charge(1, RadioState.SLEEP)
        assert acc.lifetime_slots(200.0) == 100  # 200 mJ at 2 mJ/slot

    def test_lifetime_requires_history(self):
        with pytest.raises(ValueError, match="no slots"):
            self.make().lifetime_slots(1.0)

    def test_lifetime_zero_drain(self):
        acc = EnergyAccount(1, EnergyModel(sleep_mj=0.0))
        acc.charge(0, RadioState.SLEEP)
        assert acc.lifetime_slots(1.0) > 10**18

    def test_per_node_copy(self):
        acc = self.make(2)
        acc.charge(0, RadioState.TRANSMIT)
        vec = acc.per_node_mj()
        vec[0] = 99.0
        assert acc.spent_mj[0] == 2.0

    def test_wakeup_charge(self):
        acc = EnergyAccount(2, EnergyModel(wakeup_mj=0.5))
        acc.charge_wakeup(0)
        acc.charge_wakeup(0)
        assert acc.wakeups[0] == 2
        assert acc.wakeups[1] == 0
        assert acc.spent_mj[0] == 1.0


class TestWakeupAccounting:
    """Engine-level sleep->awake transition counting."""

    def test_transitions_counted(self):
        from repro.core.schedule import Schedule
        from repro.simulation.engine import Simulator
        from repro.simulation.topology import ring
        from repro.simulation.traffic import SaturatedTraffic

        topo = ring(3)
        # Node 0: awake slots {0, 2} (two wake transitions per frame);
        # node 1: awake slots {0, 1} (one transition per frame);
        # node 2: always asleep.
        sched = Schedule.from_sets(
            3, [[0], [], [0], []], [[1], [1], [], []])
        sim = Simulator(topo, sched, SaturatedTraffic(topo))
        frames = 5
        sim.run(frames=frames)
        assert sim.energy.wakeups[0] == 2 * frames
        assert sim.energy.wakeups[1] == frames
        assert sim.energy.wakeups[2] == 0

    def test_always_awake_wakes_once(self):
        from repro.core.nonsleeping import tdma_schedule
        from repro.simulation.engine import Simulator
        from repro.simulation.topology import ring
        from repro.simulation.traffic import SaturatedTraffic

        topo = ring(4)
        sim = Simulator(topo, tdma_schedule(4), SaturatedTraffic(topo))
        sim.run(frames=10)
        assert (sim.energy.wakeups == 1).all()  # non-sleeping: one startup

    def test_scattered_slots_cost_more_wakeups(self):
        """The batching argument: same duty cycle, different transitions."""
        from repro.core.schedule import Schedule
        from repro.simulation.engine import Simulator
        from repro.simulation.topology import ring
        from repro.simulation.traffic import SaturatedTraffic

        topo = ring(3)
        scattered = Schedule.from_sets(
            3, [[0], [], [0], [], [0], []], [[], [], [], [], [], []])
        batched = Schedule.from_sets(
            3, [[0], [0], [0], [], [], []], [[], [], [], [], [], []])
        s1 = Simulator(topo, scattered, SaturatedTraffic(topo))
        s2 = Simulator(topo, batched, SaturatedTraffic(topo))
        s1.run(frames=4)
        s2.run(frames=4)
        assert s1.energy.wakeups[0] == 3 * s2.energy.wakeups[0]
        assert s1.energy.total_mj() > s2.energy.total_mj()
