"""Slotted p-persistent ALOHA baseline."""

import numpy as np
import pytest

from repro.baselines.aloha import AlohaSimulator
from repro.simulation.energy import RadioState
from repro.simulation.routing import sink_tree
from repro.simulation.topology import Topology, grid, ring, star
from repro.simulation.traffic import PeriodicSensingTraffic, PoissonTraffic


def make(topo, rate, p, seed=0, **kw):
    rng = np.random.default_rng(seed)
    traffic = PoissonTraffic(topo, rate, np.random.default_rng(seed + 1))
    return AlohaSimulator(topo, traffic, p, rng, **kw)


class TestAloha:
    def test_delivers_under_light_load(self):
        sim = make(ring(6), rate=0.01, p=0.2)
        m = sim.run_slots(4000)
        assert m.delivered > 0
        assert m.delivery_ratio() > 0.8

    def test_packet_conservation(self):
        sim = make(grid(3, 3), rate=0.05, p=0.3, seed=2)
        m = sim.run_slots(2000)
        assert m.generated == m.delivered + m.dropped + sim.pending_packets

    def test_collisions_under_contention(self):
        # A saturated star: many leaves talking at the hub must collide.
        topo = star(6, 5)
        sim = make(topo, rate=0.5, p=0.5, seed=3)
        m = sim.run_slots(1000)
        assert m.total_collisions() > 0

    def test_p_zero_never_transmits(self):
        sim = make(ring(4), rate=0.05, p=0.0, seed=4)
        m = sim.run_slots(500)
        assert m.delivered == 0
        assert sum(m.attempts.values()) == 0
        assert sim.pending_packets + m.dropped == m.generated

    def test_always_awake_energy(self):
        sim = make(ring(4), rate=0.01, p=0.2, seed=5)
        sim.run_slots(100)
        assert sim.energy.awake_fraction() == 1.0
        assert (sim.energy.wakeups == 1).all()

    def test_energy_pinned(self):
        """A seeded run's spend, bit for bit, with its state counts and
        startups: however the slots are charged, each node must get the
        additions that one per-node charge per slot gives."""
        sim = make(grid(3, 3), rate=0.05, p=0.3, seed=2)
        sim.run_slots(700)
        energy = sim.energy
        assert [float(v).hex() for v in energy.spent_mj] == [
            "0x1.88be353f7cf05p+8", "0x1.8949fbe76c8e0p+8",
            "0x1.88b374bc6a81ap+8", "0x1.8954bc6a7efc9p+8",
            "0x1.88e9374bc6aaap+8", "0x1.8954bc6a7efc4p+8",
            "0x1.88feb851eb87dp+8", "0x1.89347ae147b0bp+8",
            "0x1.889df3b645a43p+8"]
        assert energy.state_slots[RadioState.TRANSMIT].tolist() == [
            51, 38, 52, 37, 47, 37, 45, 40, 54]
        assert (energy.state_slots[RadioState.TRANSMIT]
                + energy.state_slots[RadioState.RECEIVE] == 700).all()
        assert (energy.state_slots[RadioState.SLEEP] == 0).all()
        assert (energy.wakeups == 1).all()

    def test_half_duplex(self):
        """Two mutually-transmitting neighbours cannot hear each other."""
        topo = Topology.from_edges(2, [(0, 1)])
        rng = np.random.default_rng(0)
        traffic = PoissonTraffic(topo, 0.9, np.random.default_rng(1))
        sim = AlohaSimulator(topo, traffic, p=1.0, rng=rng, queue_limit=500)
        m = sim.run_slots(200)
        # With p=1 both always talk once backlogged: no one ever receives.
        assert m.delivered < 10

    def test_multihop_routing(self):
        topo = grid(3, 3)
        rng = np.random.default_rng(6)
        traffic = PeriodicSensingTraffic(topo, sink=0, period=100)
        sim = AlohaSimulator(topo, traffic, p=0.15, rng=rng,
                             next_hops=sink_tree(topo, 0))
        m = sim.run_slots(5000)
        assert m.delivered > 0
        assert max(m.latencies) >= 2  # multi-hop paths exist

    def test_p_validated(self):
        with pytest.raises(ValueError):
            make(ring(4), rate=0.01, p=1.5)

    def test_no_guarantee_under_asymmetric_pressure(self):
        """The contrast with transparency: a busy neighbourhood can starve
        a link for a long stretch — ALOHA offers no per-frame promise."""
        topo = star(5, 4)
        rng = np.random.default_rng(9)
        traffic = PoissonTraffic(topo, 0.4, np.random.default_rng(10))
        sim = AlohaSimulator(topo, traffic, p=0.6, rng=rng, queue_limit=200)
        m = sim.run_slots(2000)
        # Under this load the hub's success rate per attempt collapses.
        rates = [m.link_success_rate(x, 0) for x in range(1, 5)]
        assert min(rates) < 0.5