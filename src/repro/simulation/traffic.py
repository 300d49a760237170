"""Traffic generators.

Three load patterns drive the experiments:

* :class:`SaturatedTraffic` — the paper's *worst case* (section 5): every
  node always has a packet pending for every neighbour.  Used to validate
  the throughput theory slot-for-slot.
* :class:`PoissonTraffic` — light random load, the regime duty cycling is
  designed for (section 1).
* :class:`PeriodicSensingTraffic` — every node reports to a sink every
  ``period`` slots, the canonical environment-monitoring workload.

A generator exposes ``arrivals(slot)``: the list of ``(src, dst)`` demands
born in that slot, where ``dst`` is a *final* destination (``None`` means
one-hop: the packet is addressed link-locally and the engine treats each
neighbour demand separately).

:data:`PATTERNS` names the three for the sweep engine and
``repro simulate``, which build a generator by name through :func:`build`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro._validation import check_choice, check_int, check_positive_float
from repro.simulation.routing import sink_tree
from repro.simulation.topology import Topology

__all__ = ["SaturatedTraffic", "PoissonTraffic", "PeriodicSensingTraffic",
           "PATTERNS", "build"]


@dataclass(frozen=True)
class SaturatedTraffic:
    """Every node has a packet for every neighbour in every slot.

    The engine special-cases this pattern: queues never drain, matching
    the worst-case assumption under which the paper's throughput
    quantities are defined.
    """

    topology: Topology
    saturated: bool = True

    def arrivals(self, slot: int) -> list[tuple[int, int]]:
        """No discrete arrivals: saturation is a standing demand."""
        return []


@dataclass
class PoissonTraffic:
    """Independent Poisson packet arrivals addressed to random neighbours.

    *rate* is the expected number of packets born per node per slot.  A
    node with no neighbours generates nothing.
    """

    topology: Topology
    rate: float
    rng: np.random.Generator
    saturated: bool = False
    _targets: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_positive_float(self.rate, "rate")
        self._targets = tuple(tuple(sorted(self.topology.neighbors(x)))
                              for x in range(self.topology.n))

    def arrivals(self, slot: int) -> list[tuple[int, int]]:
        """Sample this slot's newborn ``(src, dst)`` pairs.

        One Poisson count per node, then one destination draw per packet,
        source by source in ascending order; only sources that drew a
        packet are visited.
        """
        out = []
        counts = self.rng.poisson(self.rate, size=self.topology.n)
        for src in counts.nonzero()[0].tolist():
            nbrs = self._targets[src]
            if not nbrs:
                continue
            for _ in range(int(counts[src])):
                dst = nbrs[int(self.rng.integers(len(nbrs)))]
                out.append((src, dst))
        return out


@dataclass
class PeriodicSensingTraffic:
    """Every non-sink node emits one report to *sink* every *period* slots.

    Node phases are staggered (node ``x`` fires at slots congruent to
    ``x mod period``) so the load is spread over the frame, as real
    sampling schedules do.  Destinations are final — the engine routes
    them hop-by-hop via the sink tree.
    """

    topology: Topology
    sink: int
    period: int
    saturated: bool = False
    _by_phase: dict[int, list[tuple[int, int]]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_int(self.sink, "sink", minimum=0, maximum=self.topology.n - 1)
        check_int(self.period, "period", minimum=1)
        self._by_phase = {}
        for src in range(self.topology.n):
            if src != self.sink:
                self._by_phase.setdefault(src % self.period, []).append(
                    (src, self.sink))

    def arrivals(self, slot: int) -> list[tuple[int, int]]:
        """Reports born in this slot, in ascending source order."""
        return list(self._by_phase.get(slot % self.period, ()))


#: Pattern name -> builder ``(topology, rng, rate, period) -> (generator,
#: next_hops)``: the generator, and the forwarding table its final
#: destinations need (None for one-hop traffic).  ``poisson`` draws from
#: *rng* at *rate*; ``sensing`` reports to node 0 every *period* slots
#: over its BFS sink tree.
PATTERNS: dict[str, Callable[..., tuple[Any, dict[int, int] | None]]] = {
    "saturated": lambda topology, rng, rate, period: (
        SaturatedTraffic(topology), None),
    "poisson": lambda topology, rng, rate, period: (
        PoissonTraffic(topology, rate, rng), None),
    "sensing": lambda topology, rng, rate, period: (
        PeriodicSensingTraffic(topology, sink=0, period=period),
        sink_tree(topology, 0)),
}


def build(pattern: str, topology: Topology, rng: np.random.Generator, *,
          rate: float, period: int) -> tuple[Any, dict[int, int] | None]:
    """The :data:`PATTERNS` generator called *pattern*, and its routes.

    Returns the generator on *topology* and the ``next_hops`` table a
    :class:`~repro.simulation.engine.Simulator` routes it by (None for
    one-hop traffic).  An unknown *pattern* raises ``ValueError`` listing
    the names.
    """
    return check_choice(pattern, PATTERNS, "traffic")(
        topology, rng, rate, period)
