"""Node mobility: evolving topologies inside the class ``N_n^D``.

Topology transparency exists because sensor topologies *change* — nodes
move, fade, die and reappear.  This module generates topology trajectories
(sequences of :class:`Topology` snapshots that each stay inside the class
bound) and lets the engine switch between them mid-run:

* :class:`RandomWaypointMobility` — points move toward random waypoints in
  the unit square; edges are recomputed from the radio radius and capped
  to the degree bound at every epoch;
* :class:`EdgeChurnMobility` — graph-level churn: each epoch replaces a
  few random edges with fresh in-class edges (the abstract counterpart,
  used by the dynamic-topology experiments);
* :func:`run_with_mobility` — drives a :class:`Simulator` across the
  epochs of a trajectory, refreshing routing at each switch, and returns
  the merged metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro._validation import check_class_params, check_int, check_positive_float
from repro.simulation.engine import Simulator
from repro.simulation.metrics import Metrics
from repro.simulation.routing import sink_tree
from repro.simulation.topology import Topology, _cap_degrees

__all__ = ["RandomWaypointMobility", "EdgeChurnMobility", "run_with_mobility"]


@dataclass
class RandomWaypointMobility:
    """Random-waypoint movement with unit-disk connectivity.

    Nodes live in the unit square; each has a current waypoint toward
    which it moves *speed* per epoch, picking a new waypoint on arrival.
    ``snapshot()`` yields the current degree-capped unit-disk topology.
    """

    n: int
    d: int
    radius: float
    speed: float
    rng: np.random.Generator

    def __post_init__(self) -> None:
        self.n, self.d = check_class_params(self.n, self.d)
        check_positive_float(self.radius, "radius")
        check_positive_float(self.speed, "speed")
        self._pos = self.rng.uniform(0.0, 1.0, size=(self.n, 2))
        self._way = self.rng.uniform(0.0, 1.0, size=(self.n, 2))

    def step(self) -> None:
        """Advance every node one epoch toward its waypoint."""
        delta = self._way - self._pos
        dist = np.linalg.norm(delta, axis=1, keepdims=True)
        arrived = dist[:, 0] <= self.speed
        move = np.where(dist > 0, delta / np.maximum(dist, 1e-12), 0.0)
        self._pos = np.where(arrived[:, None], self._way,
                             self._pos + move * self.speed)
        if arrived.any():
            self._way[arrived] = self.rng.uniform(
                0.0, 1.0, size=(int(arrived.sum()), 2))

    def snapshot(self) -> Topology:
        """The current connectivity graph, capped into ``N_n^D``."""
        diffs = self._pos[:, None, :] - self._pos[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diffs, diffs)
        within = dist2 <= self.radius * self.radius
        edges = [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                 if within[i, j]]
        return Topology(self.n, _cap_degrees(edges, self.n, self.d, self.rng))

    def trajectory(self, epochs: int) -> Iterator[Topology]:
        """Yield *epochs* successive snapshots, stepping between them."""
        check_int(epochs, "epochs", minimum=1)
        for _ in range(epochs):
            yield self.snapshot()
            self.step()


@dataclass
class EdgeChurnMobility:
    """Graph-level churn: swap *churn* random edges per epoch, in-class."""

    topology: Topology
    d: int
    churn: int
    rng: np.random.Generator

    def __post_init__(self) -> None:
        _, self.d = check_class_params(self.topology.n, self.d)
        check_int(self.churn, "churn", minimum=0)
        self.topology.assert_in_class(self.topology.n, self.d)

    def step(self) -> None:
        """Replace up to ``churn`` edges with fresh in-class ones."""
        n = self.topology.n
        edges = set(self.topology.edges)
        removable = sorted(edges)
        self.rng.shuffle(removable)  # type: ignore[arg-type]
        for e in removable[:self.churn]:
            edges.discard(e)
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        added, attempts = 0, 0
        while added < self.churn and attempts < 50 * max(1, self.churn):
            attempts += 1
            u, v = int(self.rng.integers(n)), int(self.rng.integers(n))
            if u == v:
                continue
            e = (min(u, v), max(u, v))
            if e in edges or degree[u] >= self.d or degree[v] >= self.d:
                continue
            edges.add(e)
            degree[u] += 1
            degree[v] += 1
            added += 1
        self.topology = Topology(n, frozenset(edges))

    def snapshot(self) -> Topology:
        """The current topology."""
        return self.topology

    def trajectory(self, epochs: int) -> Iterator[Topology]:
        """Yield *epochs* successive snapshots, stepping between them."""
        check_int(epochs, "epochs", minimum=1)
        for _ in range(epochs):
            yield self.snapshot()
            self.step()


def run_with_mobility(schedule, traffic_factory, mobility, *,
                      epochs: int, slots_per_epoch: int,
                      sink: int | None = None,
                      simulator_kwargs: dict | None = None) -> Metrics:
    """Simulate across a mobility trajectory with one schedule throughout.

    For each epoch: take the next topology snapshot, rebuild traffic via
    ``traffic_factory(topology)`` and (when *sink* is given) the sink
    tree, run ``slots_per_epoch`` slots, and accumulate metrics.  The
    *schedule never changes* — that is the topology-transparent deployment
    model this module exists to exercise.

    Returns the merged :class:`Metrics` across all epochs.
    """
    check_int(epochs, "epochs", minimum=1)
    check_int(slots_per_epoch, "slots_per_epoch", minimum=1)
    merged = Metrics()
    kwargs = dict(simulator_kwargs or {})
    for topo in mobility.trajectory(epochs):
        traffic = traffic_factory(topo)
        hops = sink_tree(topo, sink) if sink is not None else None
        sim = Simulator(topo, schedule, traffic, next_hops=hops, **kwargs)
        merged.merge(sim.run_slots(slots_per_epoch))
    return merged
