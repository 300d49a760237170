"""Slotted p-persistent ALOHA: the unscheduled comparator.

The opposite pole from scheduling: no frame, no eligibility — every node
is always awake and transmits a queued packet in any slot with
probability ``p``.  The classic random-access baseline shows what the
paper's schedules buy relative to *no* coordination at all: ALOHA has no
worst-case guarantee of any kind (a link can starve arbitrarily long) and
pays full-time listening energy, but needs no synchronization or class
bound.

ALOHA runs on the engine's slot step, which replaces only the choice of
who transmits: arrivals, routing, queues, the collision rule, forwarding,
requeueing and energy accounting are the code every scheduled scheme
runs, so its numbers are directly comparable with theirs.
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_probability
from repro.core.schedule import Schedule
from repro.simulation.energy import EnergyModel
from repro.simulation.engine import Packet, Simulator
from repro.simulation.topology import Topology

__all__ = ["AlohaSimulator"]


class AlohaSimulator(Simulator):
    """Slot-synchronous p-persistent ALOHA over a topology.

    A :class:`repro.simulation.engine.Simulator` in queued mode over the
    one-slot schedule in which every node listens, so no node ever
    sleeps.  In each slot every backlogged node whose coin (one
    ``rng.random(n)`` draw per slot, after the arrivals) falls below
    ``p`` sends its head-of-line packet, and a node that sends cannot
    receive.
    """

    # The coin is drawn every slot, so :meth:`run` never takes the kernel.
    _vector_eligible = False

    def __init__(self, topology: Topology, traffic, p: float,
                 rng: np.random.Generator, *,
                 energy_model: EnergyModel | None = None,
                 next_hops: dict[int, int] | None = None,
                 queue_limit: int = 64) -> None:
        self.p = check_probability(p, "p")
        self.rng = rng
        n = topology.n
        super().__init__(topology, Schedule(n, (0,), ((1 << n) - 1,)),
                         traffic, energy_model=energy_model,
                         next_hops=next_hops, queue_limit=queue_limit)

    def _transmit(self, slot: int, senders: list[int], listening: bytes
                  ) -> tuple[dict[int, Packet], bytearray, list[int]]:
        """Backlogged winners of the coin send their head-of-line
        packets and stop listening; no node is ever down."""
        coin = self.rng.random(self.topology.n)
        transmissions: dict[int, Packet] = {}
        listening = bytearray(listening)
        for x in (coin < self.p).nonzero()[0].tolist():
            if self.queues[x]:
                pkt = transmissions[x] = self.queues[x].popleft()
                self.metrics.record_attempt(x, pkt.next_hop)
                listening[x] = 0
        return transmissions, listening, []
