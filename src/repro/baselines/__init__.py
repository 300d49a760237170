"""Comparison schemes the paper's approach is evaluated against.

* :mod:`repro.baselines.naive` — naive k-slot duty cycling: every node is
  awake in one slot out of ``k`` at an independent offset.  This is the
  introduction's cautionary example: neighbours' traffic, formerly spread
  over ``k`` slots, concentrates into the receiver's single wake slot and
  collides.
* :mod:`repro.baselines.coloring` — topology-*dependent* TDMA from a
  greedy distance-2 colouring: collision-free and short-framed for one
  fixed topology, but its guarantee evaporates the moment the topology
  changes — the foil that motivates topology transparency.
* :mod:`repro.baselines.aloha` — slotted p-persistent ALOHA: the
  unscheduled pole.  No synchronized frame, no guarantee of any kind,
  full-time listening energy.  It runs on the engine's slot step with a
  coin in place of the schedule's choice of transmitters.
"""

from repro.baselines.naive import naive_duty_cycle
from repro.baselines.coloring import distance2_coloring, coloring_schedule
from repro.baselines.aloha import AlohaSimulator

__all__ = ["naive_duty_cycle", "distance2_coloring", "coloring_schedule",
           "AlohaSimulator"]
