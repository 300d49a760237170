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
  simulation that experiment E8 checks exactly.

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

from repro._validation import check_int, check_probability
from repro.core.schedule import Schedule
from repro.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.tracing import span
from repro.simulation.drift import ClockDrift
from repro.simulation.energy import EnergyAccount, EnergyModel, RadioState
from repro.simulation.metrics import Metrics
from repro.simulation.topology import Topology

__all__ = ["Packet", "Simulator"]


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
    idle_transmitters_sleep:
        Whether a transmit-eligible node with nothing to send powers down
        (default) or burns idle-listening energy.
    capture_probability:
        Probability that a collision resolves to one random talker being
        received anyway (capture effect).  Default 0.0 — the paper's model,
        in which every collision destroys all frames; nonzero values are a
        robustness probe only.
    rng:
        Random source for the capture lottery.
    registry:
        Optional :class:`repro.obs.metrics.MetricsRegistry` receiving the
        simulator's observability series (collision/link-loss counters and
        a slots-per-second gauge); defaults to the process-global registry.
        Series update once per :meth:`run` frame — never per slot — so the
        hot path stays untouched.
    instrument:
        When False the simulator never touches a registry or tracer: no
        series are created, no ``sim.frame`` spans open and no per-frame
        gauge flushes run — the uninstrumented path is allocation-free.
        This also unlocks the vectorized saturated-mode frame kernel in
        :meth:`run` (see *vectorize*), the fast path the sweep engine
        rides.
    vectorize:
        Allow the vectorized saturated-mode kernel (collision
        resolution over whole frames as exact integer counts on the
        directed links).  It engages only when
        ``instrument=False`` and the run is eligible — saturated traffic,
        synchronous clocks, no fault plan, no capture — and is *exact*:
        the property suite pins it bit-for-bit against the scalar
        reference (:meth:`_slow_slot_step`) and the analytic
        ``|T(x, y, S)|``.  Set False to force the scalar path.
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
                 idle_transmitters_sleep: bool = True,
                 capture_probability: float = 0.0,
                 rng: np.random.Generator | None = None,
                 registry: MetricsRegistry | None = None,
                 faults: FaultPlan | None = None,
                 instrument: bool = True,
                 vectorize: bool = True) -> None:
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
        self.idle_transmitters_sleep = idle_transmitters_sleep
        self.capture_probability = check_probability(
            capture_probability, "capture_probability")
        self.rng = rng if rng is not None else np.random.default_rng()
        # Fault injection is compiled once per simulator so stochastic
        # outage timelines are generated exactly once per node; inactive
        # plans cost the hot path nothing (a single None check per slot).
        self._faults = faults.compile(topology.n) \
            if faults is not None and faults.simulation_active else None
        self.metrics = Metrics()
        self.queues: list[deque[Packet]] = [deque() for _ in range(topology.n)]
        self._pid = itertools.count()
        self._slot = 0
        # Profiled hot path: under perfect synchrony every node agrees on
        # the frame position and the schedule is immutable, so per-slot
        # eligibility is cached per frame position instead of recomputed.
        self._sync = self.drift.is_synchronous
        self._elig_cache: dict[int, tuple[list[bool], list[bool]]] = {}
        # Radio wakeup accounting: who was awake last slot.
        self._was_awake = [False] * topology.n
        self._instrument = bool(instrument)
        self._vectorize = bool(vectorize)
        # Observability: registry series updated per frame from Metrics
        # deltas (the per-slot hot path never touches the registry).
        # With instrument=False the registry and tracer are never touched
        # at all — not even to create idle series.
        if self._instrument:
            reg = registry if registry is not None else default_registry()
            self._obs_collisions = reg.counter(
                "repro_sim_collisions_total",
                "Receiver-side collisions observed by the simulator.").labels()
            self._obs_losses = reg.counter(
                "repro_sim_link_losses_total",
                "Clean receptions destroyed by injected link loss.").labels()
            self._obs_rate = reg.gauge(
                "repro_sim_slots_per_second",
                "Simulated slots per wall-clock second, last run() call."
            ).labels()
        else:
            self._obs_collisions = self._obs_losses = self._obs_rate = None
        self._counted_collisions = 0
        self._counted_losses = 0
        # Lazily built matrices for the vectorized frame kernel.
        self._mats: tuple[np.ndarray, ...] | None = None

    def _eligibility(self, slot: int) -> tuple[list[bool], list[bool]]:
        """Per-node (tx_eligible, listening) flags for this true slot."""
        n = self.topology.n
        length = self.schedule.frame_length
        if self._sync:
            pos = slot % length
            cached = self._elig_cache.get(pos)
            if cached is None:
                tx_mask = self.schedule.tx[pos]
                rx_mask = self.schedule.rx[pos]
                cached = (
                    [bool(tx_mask >> x & 1) for x in range(n)],
                    [bool(rx_mask >> x & 1) for x in range(n)],
                )
                self._elig_cache[pos] = cached
            return cached
        local = [self.drift.local_slot(x, slot, length) for x in range(n)]
        return (
            [bool(self.schedule.tx[local[x]] >> x & 1) for x in range(n)],
            [bool(self.schedule.rx[local[x]] >> x & 1) for x in range(n)],
        )

    # ------------------------------------------------------------------
    def _route(self, holder: int, final_dst: int) -> int | None:
        """Next hop for a packet at *holder* bound for *final_dst*."""
        if final_dst in self.topology.neighbors(holder):
            return final_dst
        hop = self.next_hops.get(holder)
        return hop

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
        """Advance the simulation by one slot."""
        slot = self._slot
        n = self.topology.n
        if not self.traffic.saturated:
            self._admit_arrivals(slot)

        # Per-node beliefs about the current frame position (cached when
        # all clocks agree).
        tx_eligible, listening = self._eligibility(slot)

        # Injected node outages: a crashed node neither transmits nor
        # listens (copy the flags — the synchronous path caches them).
        if self._faults is not None:
            up = [self._faults.node_up(x, slot) for x in range(n)]
            down = n - sum(up)
            if down:
                self.metrics.record_nodes_down(down)
                tx_eligible = [tx_eligible[x] and up[x] for x in range(n)]
                listening = [listening[x] and up[x] for x in range(n)]

        transmissions: dict[int, Packet | None] = {}
        if self.traffic.saturated:
            for x in range(n):
                if tx_eligible[x] and self.topology.degree(x) > 0:
                    transmissions[x] = None  # broadcast measurement frame
                    for y in self.topology.neighbors(x):
                        self.metrics.record_attempt(x, y)
        else:
            for x in range(n):
                if not tx_eligible[x] or not self.queues[x]:
                    continue
                # Receiver-aware send: first queued packet whose next hop
                # listens this slot (by the *receiver's* clock).
                queue = self.queues[x]
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
                self.metrics.record_attempt(x, pkt.next_hop)

        # Collision resolution at every listener.
        received: dict[int, tuple[int, Packet | None]] = {}
        for y in range(n):
            if not listening[y]:
                continue
            talkers = [x for x in self.topology.neighbors(y) if x in transmissions]
            if len(talkers) > 1:
                self.metrics.record_collision(y)
                # Optional capture effect (robustness probe; the paper's
                # model has none): one random talker survives the pile-up.
                if self.capture_probability > 0.0 and \
                        self.rng.random() < self.capture_probability:
                    winner = talkers[int(self.rng.integers(len(talkers)))]
                    if self._faults is not None and \
                            not self._faults.link_delivers(slot, winner, y):
                        self.metrics.record_link_loss()
                    else:
                        received[y] = (winner, transmissions[winner])
            elif len(talkers) == 1:
                # Injected link loss destroys an otherwise-clean frame;
                # in queued mode the sender requeues and retransmits.
                if self._faults is not None and \
                        not self._faults.link_delivers(slot, talkers[0], y):
                    self.metrics.record_link_loss()
                else:
                    received[y] = (talkers[0], transmissions[talkers[0]])

        handed_off: set[int] = set()
        for y, (x, pkt) in received.items():
            if pkt is None:
                # Saturated measurement mode: every clean reception is a
                # per-link success.
                self.metrics.record_success(x, y)
                continue
            if pkt.next_hop != y:
                continue  # overheard a frame meant for someone else
            handed_off.add(pkt.pid)
            self.metrics.record_success(x, y)
            if y == pkt.final_dst:
                # Latency counts occupied slots: a packet born and delivered
                # in the same slot spent one slot in the air.
                self.metrics.record_delivery(slot - pkt.created + 1)
            else:
                hop = self._route(y, pkt.final_dst)
                if hop is None:
                    self.metrics.dropped += 1
                else:
                    pkt.next_hop = hop
                    self._enqueue(y, pkt)

        # In queued mode an unheard unicast stays with the sender: the
        # packet was removed above, so requeue at the front on failure
        # (including when only bystanders overheard it).
        if not self.traffic.saturated:
            for x, pkt in transmissions.items():
                if pkt is not None and pkt.pid not in handed_off:
                    self.queues[x].appendleft(pkt)

        # Energy accounting, including the sleep->awake startup cost.
        for x in range(n):
            if x in transmissions:
                awake = True
                self.energy.charge(x, RadioState.TRANSMIT)
            elif listening[x]:
                awake = True
                self.energy.charge(x, RadioState.RECEIVE)
            elif tx_eligible[x] and not self.idle_transmitters_sleep:
                awake = True
                self.energy.charge(x, RadioState.IDLE)
            else:
                awake = False
                self.energy.charge(x, RadioState.SLEEP)
            if awake and not self._was_awake[x]:
                self.energy.charge_wakeup(x)
            self._was_awake[x] = awake

        self._slot += 1
        self.metrics.slots = self._slot

    #: The pre-vectorization scalar slot step, kept by name as the exact
    #: reference the property suite replays against the vectorized kernel.
    _slow_slot_step = step

    def _flush_observability(self, slots: int, elapsed: float) -> None:
        """Publish Metrics deltas to the registry (once per frame/run)."""
        if self._obs_collisions is None:
            return
        collisions = self.metrics.total_collisions()
        self._obs_collisions.inc(collisions - self._counted_collisions)
        self._counted_collisions = collisions
        losses = self.metrics.link_losses
        self._obs_losses.inc(losses - self._counted_losses)
        self._counted_losses = losses
        if elapsed > 0.0:
            self._obs_rate.set(slots / elapsed)

    # ------------------------------------------------------------------
    # vectorized saturated-mode frame kernel
    # ------------------------------------------------------------------
    @property
    def _vector_eligible(self) -> bool:
        """True when the vectorized kernel reproduces the scalar path
        exactly.

        Saturated traffic under perfect synchrony with no fault plan and
        no capture lottery is memoryless: every slot's outcome is a pure
        function of the frame position, so whole frames collapse into one
        batch of array operations.
        """
        return (self._vectorize and not self._instrument
                and self.traffic.saturated and self._sync
                and self._faults is None and self.capture_probability == 0.0)

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
        idle = (tx_elig & ~tx if not self.idle_transmitters_sleep
                else np.zeros_like(tx))
        awake = tx | rx | idle
        tx_ct, rx_ct, idle_ct = (a.sum(axis=1, dtype=np.int64)
                                 for a in (tx, rx, idle))
        sleep_ct = length - tx_ct - rx_ct - idle_ct
        for state, counts in ((RadioState.TRANSMIT, tx_ct),
                              (RadioState.RECEIVE, rx_ct),
                              (RadioState.IDLE, idle_ct),
                              (RadioState.SLEEP, sleep_ct)):
            self.energy.state_slots[state] += counts * frames
        self.energy.spent_mj += frames * (
            tx_ct * model.tx_mj + rx_ct * model.rx_mj
            + idle_ct * model.idle_mj + sleep_ct * model.sleep_mj)
        # Wakeups: sleep->awake edges.  In the steady state frames repeat,
        # so the frame boundary compares against the previous frame's last
        # slot; frame 0 alone compares against the recorded history.
        prev = np.roll(awake, 1, axis=1)           # steady-state predecessor
        steady = (awake & ~prev).sum(axis=1, dtype=np.int64)
        was = np.asarray(self._was_awake, dtype=bool)
        first = steady - (awake[:, 0] & ~awake[:, -1]) + (awake[:, 0] & ~was)
        wakeups = first + steady * (frames - 1)
        self.energy.wakeups += wakeups
        self.energy.spent_mj += wakeups * model.wakeup_mj
        self._was_awake = awake[:, -1].tolist()

        self._slot += frames * length
        m.slots = self._slot

    def run(self, frames: int) -> Metrics:
        """Simulate *frames* whole schedule frames; returns the metrics.

        Instrumented, each frame is bracketed in a ``sim.frame`` span and
        the collision/link-loss counters plus the slots-per-second gauge
        update from :class:`Metrics` deltas at frame boundaries.  With
        ``instrument=False`` neither registry nor tracer is touched and,
        when the run is eligible (see *vectorize*), whole frames execute
        through the vectorized kernel.
        """
        frames = check_int(frames, "frames", minimum=1)
        length = self.schedule.frame_length
        if self._vector_eligible:
            self._run_vectorized(frames)
            return self.metrics
        if not self._instrument:
            for _ in range(frames * length):
                self.step()
            return self.metrics
        started = perf_counter()
        for frame in range(frames):
            with span("sim.frame", frame=frame, slots=length):
                for _ in range(length):
                    self.step()
            self._flush_observability(frames * length,
                                      perf_counter() - started)
        return self.metrics

    def run_slots(self, slots: int) -> Metrics:
        """Simulate an exact number of slots (not necessarily whole frames)."""
        slots = check_int(slots, "slots", minimum=1)
        started = perf_counter()
        for _ in range(slots):
            self.step()
        self._flush_observability(slots, perf_counter() - started)
        return self.metrics

    @property
    def pending_packets(self) -> int:
        """Packets currently queued anywhere in the network."""
        return sum(len(q) for q in self.queues)
