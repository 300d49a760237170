"""The original scalar slot step, kept as the exact reference.

:meth:`repro.simulation.engine.Simulator.step` visits only the nodes
that act in a slot.  This is the step it replaced: every node is visited
in every slot — eligibility, transmission, collision resolution at every
listener, one :meth:`EnergyAccount.charge` per node.  The property and
equivalence suites replay it on a second simulator built from the same
arguments and require the two states to be equal, energy included
bit for bit (:func:`assert_same_state`, over :func:`state_document`).
"""

from __future__ import annotations

import numpy as np

from repro.simulation.energy import RadioState
from repro.simulation.engine import Packet, Simulator


def _eligibility(sim: Simulator, slot: int) -> tuple[list[bool], list[bool]]:
    """Per-node (tx_eligible, listening) flags for this true slot."""
    n = sim.topology.n
    length = sim.schedule.frame_length
    local = [sim.drift.local_slot(x, slot, length) for x in range(n)]
    return (
        [bool(sim.schedule.tx[local[x]] >> x & 1) for x in range(n)],
        [bool(sim.schedule.rx[local[x]] >> x & 1) for x in range(n)],
    )


def _route(sim: Simulator, holder: int, final_dst: int) -> int | None:
    """Next hop for a packet at *holder* bound for *final_dst*."""
    if final_dst in sim.topology.neighbors(holder):
        return final_dst
    return sim.next_hops.get(holder)


def _enqueue(sim: Simulator, node: int, packet: Packet) -> None:
    if len(sim.queues[node]) >= sim.queue_limit:
        sim.metrics.dropped += 1
        return
    sim.queues[node].append(packet)


def _admit_arrivals(sim: Simulator, slot: int) -> None:
    for src, final_dst in sim.traffic.arrivals(slot):
        if sim._faults is not None and not sim._faults.node_up(src, slot):
            continue  # a crashed sensor senses nothing
        sim.metrics.generated += 1
        hop = _route(sim, src, final_dst)
        if hop is None:
            sim.metrics.dropped += 1
            continue
        _enqueue(sim, src, Packet(next(sim._pid), src, final_dst, slot, hop))


def slow_slot_step(sim: Simulator) -> None:
    """Advance *sim* by one slot, visiting every node."""
    slot = sim._slot
    n = sim.topology.n
    if not sim.traffic.saturated:
        _admit_arrivals(sim, slot)

    tx_eligible, listening = _eligibility(sim, slot)

    # Injected node outages: a crashed node neither transmits nor listens.
    if sim._faults is not None:
        up = [sim._faults.node_up(x, slot) for x in range(n)]
        down = n - sum(up)
        if down:
            sim.metrics.record_nodes_down(down)
            tx_eligible = [tx_eligible[x] and up[x] for x in range(n)]
            listening = [listening[x] and up[x] for x in range(n)]

    transmissions: dict[int, Packet | None] = {}
    if sim.traffic.saturated:
        for x in range(n):
            if tx_eligible[x] and sim.topology.degree(x) > 0:
                transmissions[x] = None  # broadcast measurement frame
                for y in sim.topology.neighbors(x):
                    sim.metrics.record_attempt(x, y)
    else:
        for x in range(n):
            if not tx_eligible[x] or not sim.queues[x]:
                continue
            # Receiver-aware send: first queued packet whose next hop
            # listens this slot (by the *receiver's* clock).
            queue = sim.queues[x]
            chosen = None
            for idx, pkt in enumerate(queue):
                if listening[pkt.next_hop]:
                    chosen = idx
                    break
            if chosen is None:
                continue
            pkt = queue[chosen]
            del queue[chosen]
            transmissions[x] = pkt
            sim.metrics.record_attempt(x, pkt.next_hop)

    # Collision resolution at every listener.
    received: dict[int, tuple[int, Packet | None]] = {}
    for y in range(n):
        if not listening[y]:
            continue
        talkers = [x for x in sim.topology.neighbors(y) if x in transmissions]
        if len(talkers) > 1:
            sim.metrics.record_collision(y)
        elif len(talkers) == 1:
            if sim._faults is not None and \
                    not sim._faults.link_delivers(slot, talkers[0], y):
                sim.metrics.record_link_loss()
            else:
                received[y] = (talkers[0], transmissions[talkers[0]])

    handed_off: set[int] = set()
    for y, (x, pkt) in received.items():
        if pkt is None:
            sim.metrics.record_success(x, y)
            continue
        if pkt.next_hop != y:
            continue  # overheard a frame meant for someone else
        handed_off.add(pkt.pid)
        sim.metrics.record_success(x, y)
        if y == pkt.final_dst:
            sim.metrics.record_delivery(slot - pkt.created + 1)
        else:
            hop = _route(sim, y, pkt.final_dst)
            if hop is None:
                sim.metrics.dropped += 1
            else:
                pkt.next_hop = hop
                _enqueue(sim, y, pkt)

    # An unheard unicast stays with the sender, at the front of its queue.
    if not sim.traffic.saturated:
        for x, pkt in transmissions.items():
            if pkt is not None and pkt.pid not in handed_off:
                sim.queues[x].appendleft(pkt)

    # Energy accounting, including the sleep->awake startup cost.
    for x in range(n):
        if x in transmissions:
            awake = True
            sim.energy.charge(x, RadioState.TRANSMIT)
        elif listening[x]:
            awake = True
            sim.energy.charge(x, RadioState.RECEIVE)
        else:
            awake = False
            sim.energy.charge(x, RadioState.SLEEP)
        if awake and not sim._was_awake[x]:
            sim.energy.charge_wakeup(x)
        sim._was_awake[x] = awake

    sim._slot += 1
    sim.metrics.slots = sim._slot


def state_document(sim: Simulator, rng: np.random.Generator) -> dict:
    """Every observable piece of a simulator's state, JSON-ready, with
    the position of *rng*, the random stream its case built."""
    m, energy = sim.metrics, sim.energy
    return {
        "slots": m.slots,
        "attempts": sorted(m.attempts.items()),
        "successes": sorted(m.successes.items()),
        "collisions": sorted(m.collisions.items()),
        "generated": m.generated,
        "delivered": m.delivered,
        "dropped": m.dropped,
        "latencies": m.latencies,
        "link_losses": m.link_losses,
        "node_down_slots": m.node_down_slots,
        "queues": [[(p.pid, p.src, p.final_dst, p.created, p.next_hop)
                    for p in queue] for queue in sim.queues],
        "state_slots": {s.value: energy.state_slots[s].tolist()
                        for s in RadioState},
        "wakeups": energy.wakeups.tolist(),
        "spent_mj": [float(v).hex() for v in energy.spent_mj],
        "rng": rng.bit_generator.state,
    }


def assert_same_state(a: Simulator, rng_a: np.random.Generator,
                      b: Simulator, rng_b: np.random.Generator) -> None:
    """*a* and *b* are in the same state, energy equal bit for bit, and
    their cases' random streams at the same position."""
    assert state_document(a, rng_a) == state_document(b, rng_b)
    assert np.array_equal(a.energy.spent_mj, b.energy.spent_mj)
    assert list(a._was_awake) == list(b._was_awake)
