"""Slotted p-persistent ALOHA: the unscheduled comparator.

The opposite pole from scheduling: no frame, no eligibility — every node
is always awake and transmits a queued packet in any slot with
probability ``p``.  The classic random-access baseline shows what the
paper's schedules buy relative to *no* coordination at all: ALOHA has no
worst-case guarantee of any kind (a link can starve arbitrarily long) and
pays full-time listening energy, but needs no synchronization or class
bound.

This simulator shares the collision rule, topology, traffic, metrics and
energy accounting of :mod:`repro.simulation`, so its numbers are directly
comparable with the engine's.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from repro._validation import check_int, check_probability
from repro.simulation.energy import RECEIVE, TRANSMIT, EnergyAccount, \
    EnergyModel
from repro.simulation.engine import Packet
from repro.simulation.metrics import Metrics
from repro.simulation.topology import Topology

__all__ = ["AlohaSimulator"]


class AlohaSimulator:
    """Slot-synchronous p-persistent ALOHA over a topology.

    Mirrors the scheduling engine's queued mode: Poisson/periodic traffic,
    per-node FIFO queues, next-hop routing, the exactly-one-talker
    collision rule, and the same per-slot energy accounting (every node
    pays receive-current whenever it is not transmitting — ALOHA never
    sleeps).
    """

    def __init__(self, topology: Topology, traffic, p: float,
                 rng: np.random.Generator, *,
                 energy_model: EnergyModel | None = None,
                 next_hops: dict[int, int] | None = None,
                 queue_limit: int = 64) -> None:
        self.topology = topology
        self.traffic = traffic
        self.p = check_probability(p, "p")
        self.rng = rng
        self.energy = EnergyAccount(topology.n, energy_model or EnergyModel())
        self.next_hops = next_hops or {}
        self.queue_limit = check_int(queue_limit, "queue_limit", minimum=1)
        self.metrics = Metrics()
        self.queues: list[deque[Packet]] = [deque() for _ in range(topology.n)]
        self._pid = itertools.count()
        self._slot = 0
        # ALOHA never sleeps: charge every node one wakeup at start, after
        # which every slot follows an awake one.
        for x in range(topology.n):
            self.energy.charge_wakeup(x)
        self._awake = np.ones(topology.n, dtype=bool)

    def _route(self, holder: int, final_dst: int) -> int | None:
        if final_dst in self.topology.neighbors(holder):
            return final_dst
        return self.next_hops.get(holder)

    def _enqueue(self, node: int, packet: Packet) -> None:
        if len(self.queues[node]) >= self.queue_limit:
            self.metrics.dropped += 1
            return
        self.queues[node].append(packet)

    def step(self) -> None:
        """Advance one slot."""
        slot = self._slot
        n = self.topology.n
        for src, final_dst in self.traffic.arrivals(slot):
            self.metrics.generated += 1
            hop = self._route(src, final_dst)
            if hop is None:
                self.metrics.dropped += 1
                continue
            self._enqueue(src, Packet(next(self._pid), src, final_dst,
                                      slot, hop))

        transmitting: dict[int, Packet] = {}
        coin = self.rng.random(n)
        for x in range(n):
            if self.queues[x] and coin[x] < self.p:
                transmitting[x] = self.queues[x].popleft()
                self.metrics.record_attempt(x, transmitting[x].next_hop)

        handed_off: set[int] = set()
        for y in range(n):
            if y in transmitting:
                continue  # half-duplex: a talker cannot receive
            talkers = [x for x in self.topology.neighbors(y)
                       if x in transmitting]
            if len(talkers) > 1:
                self.metrics.record_collision(y)
                continue
            if len(talkers) != 1:
                continue
            x = talkers[0]
            pkt = transmitting[x]
            if pkt.next_hop != y:
                continue
            handed_off.add(pkt.pid)
            self.metrics.record_success(x, y)
            if y == pkt.final_dst:
                self.metrics.record_delivery(slot - pkt.created + 1)
            else:
                hop = self._route(y, pkt.final_dst)
                if hop is None:
                    self.metrics.dropped += 1
                else:
                    pkt.next_hop = hop
                    self._enqueue(y, pkt)

        for x, pkt in transmitting.items():
            if pkt.pid not in handed_off:
                self.queues[x].appendleft(pkt)

        states = np.full((1, n), RECEIVE, dtype=np.int8)
        states[0, list(transmitting)] = TRANSMIT
        self.energy.charge_slots(states, self._awake)

        self._slot += 1
        self.metrics.slots = self._slot

    def run_slots(self, slots: int) -> Metrics:
        """Simulate an exact number of slots."""
        slots = check_int(slots, "slots", minimum=1)
        for _ in range(slots):
            self.step()
        return self.metrics

    @property
    def pending_packets(self) -> int:
        """Packets currently queued anywhere in the network."""
        return sum(len(q) for q in self.queues)
