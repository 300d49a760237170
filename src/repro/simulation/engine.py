"""The slot-synchronous simulation engine.

Implements exactly the system model of the paper's section 3 plus the
collision rule of its transparency definition: in every slot, nodes in
``T[i]`` may transmit, nodes in ``R[i]`` listen, everyone else sleeps, and
a listener receives iff **exactly one** of its neighbours transmits in that
slot (no capture, no fading — the paper's model has neither).

Two operating modes:

* **Saturated** (worst case, section 5): every transmit-eligible node
  transmits in every eligible slot, and every listening neighbour that
  hears it alone counts a per-link success.  Per-frame per-link success
  counts then equal the analytic quantity ``|T(x, y, S)|`` with ``S`` the
  receiver's true other-neighbour set — the bridge between theory and
  simulation that experiment E8 checks exactly.  Under synchronous
  clocks and no fault plan, :meth:`Simulator.run` resolves whole frames
  in a vectorized kernel with the slot step's exact counts.

* **Queued** (Poisson / periodic-sensing traffic): nodes hold FIFO packet
  queues; a transmit-eligible node sends the first queued packet whose
  next hop is listening this slot (receiver-aware duty-cycling — "a node
  has to wait until the receiver wakes up", section 1).  Deliveries,
  end-to-end latencies and drops are recorded; multi-hop packets follow a
  sink tree.

A :class:`repro.simulation.drift.ClockDrift` lets each node disagree about
the current frame position, probing the paper's synchrony assumption.  A
:class:`repro.faults.FaultPlan` injects node crash/recover epochs and
per-link packet loss on top of the collision rule, turning "does the TT
guarantee degrade gracefully?" into a runnable experiment.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro._validation import check_int
from repro.core.schedule import Schedule
from repro.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import span
from repro.simulation.drift import ClockDrift
from repro.simulation.energy import RECEIVE, SLEEP, TRANSMIT, \
    EnergyAccount, EnergyModel, RadioState
from repro.simulation.metrics import Metrics
from repro.simulation.topology import Topology

__all__ = ["Packet", "Simulator"]

# Most slots the slot step leaves uncharged: it logs each slot's
# transmitters and crashed nodes, and charges the log's energy in one
# batch when it holds this many (and before any run call returns).
_CHARGE_BATCH = 32


@dataclass
class Packet:
    """A unit of traffic traversing the network hop by hop."""

    pid: int
    src: int
    final_dst: int
    created: int
    next_hop: int


class Simulator:
    """Slot-synchronous simulator binding a topology to a schedule.

    Parameters
    ----------
    topology:
        The network; must satisfy ``topology.n <= schedule.n`` (schedules
        are built for the class bound ``n``, networks may be smaller).
    schedule:
        Any :class:`repro.core.schedule.Schedule` (duty-cycled or not).
    traffic:
        A generator from :mod:`repro.simulation.traffic`; its
        ``saturated`` attribute selects the operating mode.
    energy_model:
        Per-slot radio costs; accounting accumulates in :attr:`energy`.
    next_hops:
        Forwarding table for multi-hop traffic (``dict node -> parent``);
        required when traffic emits non-adjacent final destinations.
    drift:
        Optional :class:`ClockDrift`; defaults to perfect synchrony.
    queue_limit:
        Per-node queue capacity; arrivals beyond it are dropped (counted).
    registry:
        The :class:`repro.obs.metrics.MetricsRegistry` that watches the
        run, or ``None`` (the default) for an unwatched one that touches
        neither registry nor tracer.  A watched :meth:`run` or
        :meth:`run_slots` call records one ``sim.run`` span and publishes
        the collision and link-loss counters and the slots-per-second
        gauge once, from :class:`Metrics` deltas.  Watching never changes
        a result.
    faults:
        Optional :class:`repro.faults.FaultPlan`.  Crashed nodes neither
        transmit, listen nor sense (their queues survive a reboot); clean
        receptions on lossy links are destroyed with the plan's
        ``link_loss`` probability — in queued mode the sender requeues
        and retransmits, exactly as under a collision.  All injection is
        deterministic in the plan's seed.
    """

    def __init__(self, topology: Topology, schedule: Schedule, traffic,
                 *, energy_model: EnergyModel | None = None,
                 next_hops: dict[int, int] | None = None,
                 drift: ClockDrift | None = None,
                 queue_limit: int = 64,
                 registry: MetricsRegistry | None = None,
                 faults: FaultPlan | None = None) -> None:
        if topology.n > schedule.n:
            raise ValueError(
                f"topology has {topology.n} nodes but the schedule only "
                f"covers {schedule.n}"
            )
        self.topology = topology
        self.schedule = schedule
        self.traffic = traffic
        self.energy = EnergyAccount(topology.n, energy_model or EnergyModel())
        self.next_hops = next_hops or {}
        self.drift = drift or ClockDrift.none(topology.n)
        self.queue_limit = check_int(queue_limit, "queue_limit", minimum=1)
        # Fault injection is compiled once per simulator so stochastic
        # outage timelines are generated exactly once per node; inactive
        # plans cost the hot path nothing (a single None check per slot).
        self._faults = faults.compile(topology.n) \
            if faults is not None and faults.simulation_active else None
        self.metrics = Metrics()
        self.queues: list[deque[Packet]] = [deque() for _ in range(topology.n)]
        self._pid = itertools.count()
        self._slot = 0
        self._sync = self.drift.is_synchronous
        # Neighbour sets, read once: Topology.neighbors validates its
        # argument on every call, which the slot step cannot afford.
        self._nbrs = tuple(topology.neighbors(x) for x in range(topology.n))
        # Per-frame-position senders and listening flags, and the radio
        # state table (see _slot_tables), built at the first step.
        self._tables: list[tuple[list[int], bytes]] | None = None
        self._states: np.ndarray | None = None
        # Slots stepped but not yet charged: (frame position,
        # transmitters, crashed nodes) each, charged by _charge_pending.
        self._pending: list[tuple[int, dict, list[int]]] = []
        # Radio wakeup accounting: who was awake in the last charged slot.
        self._was_awake = np.zeros(topology.n, dtype=bool)
        # The watching registry's series, published once per run call
        # (never per slot or frame); unwatched, none exist.
        self._series = None if registry is None else (
            registry.counter(
                "repro_sim_collisions_total",
                "Receiver-side collisions observed by the simulator."
            ).labels(),
            registry.counter(
                "repro_sim_link_losses_total",
                "Clean receptions destroyed by injected link loss."
            ).labels(),
            registry.gauge(
                "repro_sim_slots_per_second",
                "Simulated slots per wall-clock second, last run call."
            ).labels())
        # Lazily built matrices for the vectorized frame kernel.
        self._mats: tuple[np.ndarray, ...] | None = None

    def _slot_tables(self) -> list[tuple[list[int], bytes]]:
        """``(senders, listening)`` per frame position, built once with
        the state table ``_states``.

        *senders* lists the transmit-eligible nodes in ascending order
        (saturated traffic: only those with a neighbour to hear them),
        ``listening[x]`` is 1 when x listens, and ``_states[i, x]`` is
        the code of x's radio state at position i (``RECEIVE`` or
        ``SLEEP``; see :mod:`repro.simulation.energy`) unless it
        transmits.  A node's local frame position is the true one plus
        its fixed clock offset, so under drift too the pattern repeats
        every frame.
        """
        if self._tables is None:
            n = self.topology.n
            tx, rx = self.schedule.tx_matrix(), self.schedule.rx_matrix()
            if self._sync:
                tx, rx = tx[:, :n], rx[:, :n]
            else:
                length = self.schedule.frame_length
                local = (np.arange(length)[:, None]
                         + np.asarray(self.drift.offsets[:n])) % length
                tx, rx = tx[local, np.arange(n)], rx[local, np.arange(n)]
            self._states = np.full(tx.shape, SLEEP, dtype=np.int8)
            self._states[rx] = RECEIVE
            if self.traffic.saturated:
                tx = tx & np.array([len(nbrs) > 0 for nbrs in self._nbrs])
            self._tables = [(tx_row.nonzero()[0].tolist(), rx_row.tobytes())
                            for tx_row, rx_row in zip(tx, rx)]
        return self._tables

    # ------------------------------------------------------------------
    def _route(self, holder: int, final_dst: int) -> int | None:
        """Next hop for a packet at *holder* bound for *final_dst*."""
        if final_dst in self._nbrs[holder]:
            return final_dst
        return self.next_hops.get(holder)

    def _enqueue(self, node: int, packet: Packet) -> None:
        if len(self.queues[node]) >= self.queue_limit:
            self.metrics.dropped += 1
            return
        self.queues[node].append(packet)

    def _admit_arrivals(self, slot: int) -> None:
        for src, final_dst in self.traffic.arrivals(slot):
            if self._faults is not None and \
                    not self._faults.node_up(src, slot):
                continue  # a crashed sensor senses nothing
            self.metrics.generated += 1
            hop = self._route(src, final_dst)
            if hop is None:
                self.metrics.dropped += 1
                continue
            self._enqueue(src, Packet(next(self._pid), src, final_dst, slot, hop))

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the simulation by one slot, its energy charged."""
        try:
            self._step()
        finally:
            self._charge_pending()

    def _step(self) -> None:
        """Advance one slot and log it for :meth:`_charge_pending`.

        The work follows the nodes that act: this position's senders and
        the listening neighbours of the actual transmitters (visited in
        ascending order, so forwarding and latencies keep that order).
        A listener no transmitter reaches hears nothing and draws
        nothing.  The slot's energy waits in the pending log, charged
        with up to ``_CHARGE_BATCH`` slots at once.  Who transmits comes
        from :meth:`_transmit`, the one part a subclass replaces
        (:class:`repro.baselines.aloha.AlohaSimulator` does).
        """
        slot = self._slot
        m = self.metrics
        nbrs = self._nbrs
        faults = self._faults
        saturated = self.traffic.saturated
        if not saturated:
            self._admit_arrivals(slot)
        tables = self._tables or self._slot_tables()
        position = slot % self.schedule.frame_length
        transmissions, listening, down = self._transmit(
            slot, *tables[position])

        # Collision resolution at the listening neighbours of this slot's
        # transmitters: heard[y] is y's one talker, or None for two or more.
        heard: dict[int, int | None] = {}
        for x in transmissions:
            for y in nbrs[x]:
                if listening[y]:
                    heard[y] = None if y in heard else x
        received: list[tuple[int, int]] = []
        for y in sorted(heard):
            x = heard[y]
            if x is None:
                m.record_collision(y)
                continue
            # Injected link loss destroys an otherwise-clean frame; in
            # queued mode the sender requeues and retransmits.
            if faults is not None and not faults.link_delivers(slot, x, y):
                m.record_link_loss()
            else:
                received.append((x, y))

        handed_off: set[int] = set()
        for x, y in received:
            pkt = transmissions[x]
            if pkt is None:
                # Saturated measurement mode: every clean reception is a
                # per-link success.
                m.record_success(x, y)
                continue
            if pkt.next_hop != y:
                continue  # overheard a frame meant for someone else
            handed_off.add(x)
            m.record_success(x, y)
            if y == pkt.final_dst:
                # Latency counts occupied slots: a packet born and delivered
                # in the same slot spent one slot in the air.
                m.record_delivery(slot - pkt.created + 1)
            else:
                hop = self._route(y, pkt.final_dst)
                if hop is None:
                    m.dropped += 1
                else:
                    pkt.next_hop = hop
                    self._enqueue(y, pkt)

        # In queued mode an unheard unicast stays with the sender: the
        # packet left its queue in _transmit, so requeue at the front on
        # failure (including when only bystanders overheard it).
        if not saturated:
            for x, pkt in transmissions.items():
                if x not in handed_off:
                    self.queues[x].appendleft(pkt)

        pending = self._pending
        pending.append((position, transmissions, down))
        if len(pending) == _CHARGE_BATCH:
            self._charge_pending()

        self._slot += 1
        m.slots = self._slot

    def _transmit(self, slot: int, senders: list[int], listening: bytes
                  ) -> tuple[dict[int, Packet | None], bytes, list[int]]:
        """This slot's transmissions, listening flags and crashed nodes.

        *senders* and *listening* are the slot's row of
        :meth:`_slot_tables`.  Saturated, every sender broadcasts a
        measurement frame (``None``); queued, a sender dequeues the
        first packet whose next hop listens.  Each transmission counts
        its attempts.
        """
        # Injected node outages: a crashed node neither transmits nor
        # listens, and sleeps.
        down: list[int] = []
        faults = self._faults
        if faults is not None:
            down = [x for x in range(self.topology.n)
                    if not faults.node_up(x, slot)]
            if down:
                self.metrics.record_nodes_down(len(down))
                dead = set(down)
                senders = [x for x in senders if x not in dead]
                listening = bytearray(listening)
                for x in down:
                    listening[x] = 0

        transmissions: dict[int, Packet | None] = {}
        attempts = self.metrics.attempts
        if self.traffic.saturated:
            for x in senders:
                transmissions[x] = None  # broadcast measurement frame
                for y in self._nbrs[x]:
                    attempts[(x, y)] += 1
        else:
            queues = self.queues
            for x in senders:
                queue = queues[x]
                if not queue:
                    continue
                # Receiver-aware send: first queued packet whose next hop
                # listens this slot (by the *receiver's* clock).
                for idx, pkt in enumerate(queue):
                    if listening[pkt.next_hop]:
                        del queue[idx]
                        transmissions[x] = pkt
                        attempts[(x, pkt.next_hop)] += 1
                        break
        return transmissions, listening, down

    def _charge_pending(self) -> None:
        """Charge the energy of the logged slots, startups included.

        A slot's states are its position's row of the state table, with
        its crashed nodes asleep and its transmitters transmitting.
        """
        if not self._pending:
            return
        positions, sent, down = zip(*self._pending)
        self._pending = []
        states = self._states[list(positions)]
        rows = np.arange(len(positions))
        for nodes, state in ((down, SLEEP), (sent, TRANSMIT)):
            counts = [len(x) for x in nodes]
            if any(counts):
                states[rows.repeat(counts),
                       list(itertools.chain.from_iterable(nodes))] = state
        self._was_awake = self.energy.charge_slots(states, self._was_awake)

    # ------------------------------------------------------------------
    # vectorized saturated-mode frame kernel
    # ------------------------------------------------------------------
    @property
    def _vector_eligible(self) -> bool:
        """True when the vectorized kernel reproduces the slot step
        exactly, which :meth:`run` then takes.

        Saturated traffic under perfect synchrony with no fault plan is
        memoryless: every slot's outcome is a pure function of the frame
        position, so whole frames collapse into one batch of array
        operations.  The kernel's energy is a per-frame sum scaled by the
        frame count, so it can differ from the slot step's running sum in
        the last bits.
        """
        return self.traffic.saturated and self._sync and self._faults is None

    def _matrices(self) -> tuple[np.ndarray, ...]:
        """Directed links, neighbour table and node x slot eligibility
        matrices, built once per simulator."""
        if self._mats is None:
            n = self.topology.n
            adj = np.zeros((n, n), dtype=bool)
            for u, v in self.topology.edges:
                adj[u, v] = adj[v, u] = True
            # Directed links (x, y) in row-major order; as adjacency is
            # symmetric, the links leaving y also list y's neighbours.
            xs, ys = np.nonzero(adj)
            degree = np.bincount(xs, minlength=n)
            # nbrs[y]: y's neighbours, padded with the sentinel node n
            # whose transmit row the kernel keeps all zero.
            nbrs = np.full((n, degree.max(initial=0)), n, dtype=np.intp)
            first = np.cumsum(degree) - degree
            nbrs[xs, np.arange(len(xs)) - first[xs]] = ys
            # Node-major rows, so every per-node gather copies whole rows.
            tx_elig = np.ascontiguousarray(self.schedule.tx_matrix()[:, :n].T)
            rx = np.ascontiguousarray(self.schedule.rx_matrix()[:, :n].T)
            self._mats = (xs, ys, degree, nbrs, tx_elig, rx)
        return self._mats

    def _run_vectorized(self, frames: int) -> None:
        """Advance *frames* whole frames with per-slot collision resolution
        as exact integer counts over the directed links; an exact replica
        of ``frames * L`` scalar steps."""
        n = self.topology.n
        length = self.schedule.frame_length
        xs, ys, degree, nbrs, tx_elig, rx = self._matrices()
        # Columns in *simulated* order: the run may start mid-frame.
        offset = self._slot % length
        if offset:
            tx_elig = np.roll(tx_elig, -offset, axis=1)
            rx = np.roll(rx, -offset, axis=1)
        # Actual transmitters per slot: eligible and with someone to hear.
        # Row n is the all-zero row the neighbour table's padding selects.
        tx_pad = np.zeros((n + 1, length), dtype=bool)
        np.logical_and(tx_elig, (degree > 0)[:, None], out=tx_pad[:n])
        tx = tx_pad[:n]
        # talkers[y, s]: transmitting neighbours of y in slot s, one
        # neighbour-table column at a time, in a dtype that holds any
        # degree (a hub may have more than 255 neighbours).
        talkers = np.zeros((n, length),
                           dtype=np.min_scalar_type(nbrs.shape[1]))
        tx_u8 = tx_pad.view(np.uint8)
        for column in nbrs.T:
            talkers += tx_u8[column]
        clean = rx & (talkers == 1)                # unique-talker listeners
        # successes per link (x, y): slots where x transmits and y hears
        # exactly one neighbour — which is then necessarily x.
        successes = (tx[xs] & clean[ys]).sum(axis=1, dtype=np.int64)
        tx_slots = tx.sum(axis=1, dtype=np.int64)  # attempts per frame / nbr
        collisions = (rx & (talkers >= 2)).sum(axis=1, dtype=np.int64)

        m = self.metrics
        links = list(zip(xs.tolist(), ys.tolist()))
        for link, count in zip(links, tx_slots[xs].tolist()):
            if count:
                m.attempts[link] += count * frames
        for link, count in zip(links, successes.tolist()):
            if count:
                m.successes[link] += count * frames
        for y, count in enumerate(collisions.tolist()):
            if count:
                m.collisions[y] += count * frames

        # Energy: state occupancy per node over one frame, scaled.
        model = self.energy.model
        awake = tx | rx
        tx_ct, rx_ct = (a.sum(axis=1, dtype=np.int64) for a in (tx, rx))
        sleep_ct = length - tx_ct - rx_ct
        for state, counts in ((RadioState.TRANSMIT, tx_ct),
                              (RadioState.RECEIVE, rx_ct),
                              (RadioState.SLEEP, sleep_ct)):
            self.energy.state_slots[state] += counts * frames
        self.energy.spent_mj += frames * (
            tx_ct * model.tx_mj + rx_ct * model.rx_mj
            + sleep_ct * model.sleep_mj)
        # Wakeups: sleep->awake edges.  In the steady state frames repeat,
        # so the frame boundary compares against the previous frame's last
        # slot; frame 0 alone compares against the recorded history.
        prev = np.roll(awake, 1, axis=1)           # steady-state predecessor
        steady = (awake & ~prev).sum(axis=1, dtype=np.int64)
        was = self._was_awake
        first = steady - (awake[:, 0] & ~awake[:, -1]) + (awake[:, 0] & ~was)
        wakeups = first + steady * (frames - 1)
        self.energy.wakeups += wakeups
        self.energy.spent_mj += wakeups * model.wakeup_mj
        self._was_awake = awake[:, -1].copy()

        self._slot += frames * length
        m.slots = self._slot

    def run(self, frames: int) -> Metrics:
        """Simulate *frames* whole schedule frames; returns the metrics.

        An eligible run (see :attr:`_vector_eligible`) takes the
        vectorized kernel, any other the slot step.
        """
        frames = check_int(frames, "frames", minimum=1)
        return self._advance(frames * self.schedule.frame_length,
                             kernel=self._vector_eligible)

    def run_slots(self, slots: int) -> Metrics:
        """Simulate an exact number of slots by the slot step.

        The count need not be a whole number of frames.
        """
        return self._advance(check_int(slots, "slots", minimum=1),
                             kernel=False)

    def _advance(self, slots: int, *, kernel: bool) -> Metrics:
        """Advance *slots* slots, whole frames by the kernel or one slot
        step each; a watched call records one ``sim.run`` span and
        publishes its :class:`Metrics` deltas once."""
        if self._series is None:
            self._simulate(slots, kernel)
            return self.metrics
        m = self.metrics
        collisions, losses = m.total_collisions(), m.link_losses
        started = perf_counter()
        with span("sim.run", slots=slots, kernel=kernel):
            self._simulate(slots, kernel)
        elapsed = perf_counter() - started
        obs_collisions, obs_losses, obs_rate = self._series
        obs_collisions.inc(m.total_collisions() - collisions)
        obs_losses.inc(m.link_losses - losses)
        if elapsed > 0.0:
            obs_rate.set(slots / elapsed)
        return m

    def _simulate(self, slots: int, kernel: bool) -> None:
        if kernel:
            self._run_vectorized(slots // self.schedule.frame_length)
            return
        try:
            for _ in range(slots):
                self._step()
        finally:
            self._charge_pending()

    @property
    def pending_packets(self) -> int:
        """Packets currently queued anywhere in the network."""
        return sum(len(q) for q in self.queues)
