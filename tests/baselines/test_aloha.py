"""Slotted p-persistent ALOHA baseline."""

import hashlib
import json

import numpy as np
import pytest

from repro.baselines.aloha import AlohaSimulator
from repro.simulation.energy import RadioState
from repro.simulation.routing import sink_tree
from repro.simulation.topology import Topology, grid, ring, star
from repro.simulation.traffic import (
    PeriodicSensingTraffic,
    PoissonTraffic,
    SaturatedTraffic,
)
from tests.simulation.scalar_reference import state_document


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

# SHA-256 of the full state after each of three run_slots calls (1, 45
# and 254 slots): every Metrics counter, the queued packets, per-state
# slot counts, wakeups, per-node spend as float.hex and the position of
# the coin's stream (tests/simulation/scalar_reference.py's
# state_document).  Recorded while ALOHA still kept its own slot loop.
ALOHA_DIGESTS = {
    ("grid", "poisson", 0.0):
        "72a364f1eec37803df58f2c3074f2886e2685f91b3dfbbf808af2b71da1d702a",
    ("grid", "poisson", 0.15):
        "e2f8badaedec8c2bdbbad3684447594e315ac0b25c9e30bf1359bffe82beaa6f",
    ("grid", "poisson", 0.5):
        "4024504dfcb8c3a4f719f5b507104aff0e3589e0b7cca8b9b77fb3f06d04d74f",
    ("grid", "poisson", 1.0):
        "66b3e2ec123539e08aa90ed9abaf7036759df204de393063cf78dae15a149a81",
    ("grid", "sensing", 0.0):
        "721ce6ce9209525ab1efdd5ab543c097fa8a3166f29a2b87dc1a1c1548750309",
    ("grid", "sensing", 0.15):
        "02f46c25bafca75df8ef09685048cc1b30f40567fc5d59f574a54e7fb275d405",
    ("grid", "sensing", 0.5):
        "dfc6d9214cc3149cdd0dade28f1e6fa8e6a56a523ea7eff869473dbef8c0e8b9",
    ("grid", "sensing", 1.0):
        "5fdd7ea214caf198192ef580a9372b561f01ce38bfb310d8411514b4fbe4bf9e",
    ("ring", "poisson", 0.0):
        "dc79acd75e7c154f8e5b963176e8f798d34b0d646e7b9586fdea1a51b1d2799b",
    ("ring", "poisson", 0.15):
        "febea6a6c1cf83637ffd2774b410eae456cefffaa2dc9029c38f8eba1bc63204",
    ("ring", "poisson", 0.5):
        "4f0a9b4f7b0b4289e95843c941cd5de05c767316b503535823ae9b990ebc4b49",
    ("ring", "poisson", 1.0):
        "31d57748806977091c2e2dfd26f58f4532961c952dfbbb51bfa3777f8a621e37",
    ("ring", "sensing", 0.0):
        "1806360cc889fc4736a80dcd130f5c92995d6b6eac25bd211a7bababf5e6fcbf",
    ("ring", "sensing", 0.15):
        "0231d90d98baea9aa6c31edbb7df66d69ca6ace76e063b82f1bdd8463103997a",
    ("ring", "sensing", 0.5):
        "9c0681bfd43d68bc84abb1a65e9fa5f48f6efaff8675aa96b737ef5ef8401cbe",
    ("ring", "sensing", 1.0):
        "2efe26c64d60b3bb98f9537e77abceaa2c4d48970b61d189c34abe104a6e5ebe",
    ("star", "poisson", 0.0):
        "0db9b02fe19ebecf8fcd17ab174c4b52791421c00256e6841126914f77c25f4e",
    ("star", "poisson", 0.15):
        "8afad1c85a5b7aa04ea2d8a2e10927cf40d4db3e78279f8ef267f36c20aecfaa",
    ("star", "poisson", 0.5):
        "02d73caf5c4290cacf625f8ff0d7467d182adbed5c0cecb2dc0d36f2e7c99af1",
    ("star", "poisson", 1.0):
        "086c2aca68684f2a0f3efdbd99efd9048cd9eab64a3cb939bb91e947d5edca55",
    ("star", "sensing", 0.0):
        "3e6aa91857d25e97bde9740486eec9d1dd7378db7879a9742e8517274d53c3bb",
    ("star", "sensing", 0.15):
        "9cba848a1c06d3bb7f24d46c37c65f7bd82a5d07c131e84f4185aedd56d7b845",
    ("star", "sensing", 0.5):
        "da8adfcea222db2b0abfe38eb804b110d2682c35d33aef72df7ed05c570d3498",
    ("star", "sensing", 1.0):
        "595198cb9a30d336392d426bd31f3320c4ef735cbb849d2b5e3d72b78307e645",
}

TOPOLOGIES = {"ring": lambda: ring(8), "grid": lambda: grid(3, 3),
              "star": lambda: star(7, 6)}


def aloha_case(shape, traffic, p):
    topo = TOPOLOGIES[shape]()
    source, hops = PoissonTraffic(topo, 0.06, np.random.default_rng(21)), None
    if traffic == "sensing":
        source = PeriodicSensingTraffic(topo, sink=0, period=12)
        hops = sink_tree(topo, 0)
    return AlohaSimulator(topo, source, p, np.random.default_rng(22),
                          next_hops=hops, queue_limit=12)


@pytest.mark.parametrize("case", sorted(ALOHA_DIGESTS),
                         ids=lambda case: "-".join(map(str, case)))
def test_state_pinned(case):
    sim = aloha_case(*case)
    states = []
    for slots in (1, 45, 254):
        sim.run_slots(slots)
        states.append(state_document(sim, sim.rng))
    text = json.dumps(states, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ALOHA_DIGESTS[case]


@pytest.mark.parametrize("traffic", ["poisson", "saturated"])
def test_run_takes_the_slot_step(traffic):
    """ALOHA's frame is one slot and its coin is drawn in every slot, so
    run(frames) steps each slot, as run_slots does, never the kernel."""
    def build():
        topo = grid(3, 3)
        source = SaturatedTraffic(topo) if traffic == "saturated" else \
            PoissonTraffic(topo, 0.05, np.random.default_rng(1))
        return AlohaSimulator(topo, source, 0.3, np.random.default_rng(0))

    ran, stepped = build(), build()
    ran.run(70)
    stepped.run_slots(70)
    assert state_document(ran, ran.rng) == state_document(stepped, stepped.rng)
    coin = np.random.default_rng(0)
    for _ in range(70):
        coin.random(9)
    assert ran.rng.bit_generator.state == coin.bit_generator.state
