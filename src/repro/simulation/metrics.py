"""Delivery, throughput and latency bookkeeping for simulation runs."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields

import numpy as np

from repro._validation import check_int

__all__ = ["Metrics"]


@dataclass
class Metrics:
    """Counters accumulated by :class:`repro.simulation.engine.Simulator`.

    Attributes
    ----------
    slots:
        Number of simulated slots.
    attempts:
        Per-directed-link transmission attempts ``(src, dst) -> count``.
    successes:
        Per-directed-link successful receptions.
    collisions:
        Per-receiver count of slots in which it listened and >= 2
        neighbours transmitted.
    generated / delivered:
        End-to-end packet counts (delivered means reached its *final*
        destination).
    latencies:
        End-to-end delivery latencies in slots.
    link_losses:
        Clean receptions destroyed by injected per-link loss
        (:class:`repro.faults.FaultPlan`), not by collisions.
    node_down_slots:
        Total node-slots spent crashed under an injected fault plan
        (summed over nodes; divide by ``slots * n`` for the fraction).
    """

    slots: int = 0
    attempts: dict[tuple[int, int], int] = field(default_factory=lambda: defaultdict(int))
    successes: dict[tuple[int, int], int] = field(default_factory=lambda: defaultdict(int))
    collisions: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    generated: int = 0
    delivered: int = 0
    dropped: int = 0
    latencies: list[int] = field(default_factory=list)
    link_losses: int = 0
    node_down_slots: int = 0

    # -- recording (engine-facing) ------------------------------------------
    def record_attempt(self, src: int, dst: int) -> None:
        """Count a transmission attempt on directed link (src, dst)."""
        self.attempts[(src, dst)] += 1

    def record_success(self, src: int, dst: int) -> None:
        """Count a successful reception on directed link (src, dst)."""
        self.successes[(src, dst)] += 1

    def record_collision(self, receiver: int) -> None:
        """Count a slot in which *receiver* heard >= 2 transmitters."""
        self.collisions[receiver] += 1

    def record_delivery(self, latency: int) -> None:
        """Count an end-to-end delivery with the given latency in slots."""
        check_int(latency, "latency", minimum=0)
        self.delivered += 1
        self.latencies.append(latency)

    def record_link_loss(self) -> None:
        """Count a clean reception destroyed by injected link loss."""
        self.link_losses += 1

    def record_nodes_down(self, count: int) -> None:
        """Count *count* crashed nodes for the current slot."""
        self.node_down_slots += count

    def merge(self, other: "Metrics") -> None:
        """Add *other*'s counts into these, field by field.

        Numbers add, per-key counts add per key and latencies append in
        order, so the runs of consecutive epochs merge into one.
        """
        for name in (f.name for f in fields(self)):
            mine, theirs = getattr(self, name), getattr(other, name)
            if isinstance(mine, list):
                mine.extend(theirs)
            elif isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            else:
                setattr(self, name, mine + theirs)

    # -- reporting ------------------------------------------------------------
    def link_success_rate(self, src: int, dst: int) -> float:
        """Successes per attempt on directed link ``(src, dst)`` (0 if unused)."""
        a = self.attempts.get((src, dst), 0)
        return self.successes.get((src, dst), 0) / a if a else 0.0

    def link_throughput(self, src: int, dst: int, frame_length: int) -> float:
        """Successful receptions per frame on directed link ``(src, dst)``."""
        check_int(frame_length, "frame_length", minimum=1)
        frames = self.slots / frame_length
        if frames == 0:
            return 0.0
        return self.successes.get((src, dst), 0) / frames

    def min_link_throughput(self, links, frame_length: int) -> float:
        """Minimum per-frame success count over the given directed links."""
        return min(
            (self.link_throughput(s, d, frame_length) for s, d in links),
            default=0.0,
        )

    def mean_link_throughput(self, links, frame_length: int) -> float:
        """Mean per-frame success count over the given directed links."""
        values = [self.link_throughput(s, d, frame_length) for s, d in links]
        return float(np.mean(values)) if values else 0.0

    def delivery_ratio(self) -> float:
        """Delivered / generated end-to-end packets (1.0 when none generated)."""
        return self.delivered / self.generated if self.generated else 1.0

    def latency_percentile(self, p: float) -> float:
        """The *p*-th percentile of end-to-end latency in slots (NaN if empty)."""
        if not self.latencies:
            return float("nan")
        return float(np.percentile(np.asarray(self.latencies), p))

    def mean_latency(self) -> float:
        """Mean end-to-end latency in slots (NaN if no deliveries)."""
        if not self.latencies:
            return float("nan")
        return float(np.mean(self.latencies))

    def total_collisions(self) -> int:
        """Total receiver-side collision events."""
        return sum(self.collisions.values())

    def node_down_fraction(self, n: int) -> float:
        """Fraction of node-slots spent crashed (0.0 with no faults)."""
        check_int(n, "n", minimum=1)
        if self.slots == 0:
            return 0.0
        return self.node_down_slots / (self.slots * n)
