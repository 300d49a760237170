"""Convergecast routing: BFS sink trees and hop counts.

Multi-hop experiments (periodic sensing to a sink) need a forwarding rule.
The standard WSN choice is a shortest-path tree rooted at the sink,
computed once; every node forwards to its tree parent.  Topology
transparency means the *schedule* need not change when the tree does —
only this table is recomputed, which is the point experiment E9's dynamic
scenario demonstrates.
"""

from __future__ import annotations

from collections import deque

from repro._validation import check_int
from repro.simulation.topology import Topology

__all__ = ["sink_tree", "hop_counts"]


def sink_tree(topology: Topology, sink: int) -> dict[int, int]:
    """BFS parent pointers toward *sink*: ``parent[x]`` is x's next hop.

    Ties are broken toward the smallest-id parent for determinism.  Nodes
    unreachable from the sink are absent from the result.
    """
    check_int(sink, "sink", minimum=0, maximum=topology.n - 1)
    parent: dict[int, int] = {}
    seen = {sink}
    queue = deque([sink])
    while queue:
        u = queue.popleft()
        for v in sorted(topology.neighbors(u)):
            if v not in seen:
                seen.add(v)
                parent[v] = u
                queue.append(v)
    return parent


def hop_counts(topology: Topology, sink: int) -> dict[int, int]:
    """Hop distance of every reachable node from *sink* (sink itself is 0)."""
    parent = sink_tree(topology, sink)
    counts = {sink: 0}
    for node in parent:
        # Walk up; paths are short, memoize along the way.
        path = []
        x = node
        while x not in counts:
            path.append(x)
            x = parent[x]
        base = counts[x]
        for i, y in enumerate(reversed(path), start=1):
            counts[y] = base + i
    return counts
