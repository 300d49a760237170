"""Topology generators for the network class ``N_n^D``.

The paper's guarantees quantify over *every* network with at most ``n``
nodes and maximum degree at most ``D``.  This module provides an immutable
:class:`Topology` wrapper plus generators spanning the shapes WSN
deployments actually take — unit-disk fields, degree-capped random graphs,
grids, rings, stars, random trees and ``D``-regular worst cases — each one
guaranteed (and checked) to lie in the requested class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro._validation import check_class_params, check_int, check_probability

__all__ = [
    "Topology",
    "unit_disk",
    "random_capped",
    "grid",
    "ring",
    "star",
    "random_tree",
    "worst_case_regular",
]


@dataclass(frozen=True)
class Topology:
    """An undirected network over nodes ``0 .. n-1``.

    *edges* is a frozenset of sorted pairs.  The adjacency structure is
    precomputed at construction.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    _adj: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_int(self.n, "n", minimum=1)
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            check_int(u, "edge endpoint", minimum=0, maximum=self.n - 1)
            check_int(v, "edge endpoint", minimum=0, maximum=self.n - 1)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if (u, v) != (min(u, v), max(u, v)):
                raise ValueError(f"edge {(u, v)} is not sorted")
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", tuple(frozenset(s) for s in adj))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Topology":
        """Build a topology from any iterable of (u, v) pairs."""
        normalized = frozenset(
            (min(u, v), max(u, v)) for u, v in edges
        )
        return cls(n, normalized)

    def neighbors(self, x: int) -> frozenset[int]:
        """The neighbour set of node *x*."""
        check_int(x, "x", minimum=0, maximum=self.n - 1)
        return self._adj[x]

    def degree(self, x: int) -> int:
        """Degree of node *x*."""
        return len(self.neighbors(x))

    @property
    def max_degree(self) -> int:
        """Maximum node degree in the network."""
        return max((len(a) for a in self._adj), default=0)

    def directed_links(self) -> list[tuple[int, int]]:
        """All ordered adjacent pairs (both directions of every edge)."""
        out = []
        for u, v in sorted(self.edges):
            out.append((u, v))
            out.append((v, u))
        return out

    def in_class(self, n: int, d: int) -> bool:
        """True iff this network belongs to ``N_n^D``."""
        n, d = check_class_params(n, d)
        return self.n <= n and self.max_degree <= d

    def assert_in_class(self, n: int, d: int) -> None:
        """Raise ValueError unless the network belongs to ``N_n^D``."""
        if not self.in_class(n, d):
            raise ValueError(
                f"topology (n={self.n}, max_degree={self.max_degree}) is not "
                f"in N_{n}^{d}"
            )

    def is_connected(self) -> bool:
        """True iff the network is connected (single component)."""
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n

    def without_nodes(self, dead: Iterable[int]) -> "Topology":
        """The surviving network after the *dead* nodes fail.

        Node ids are preserved (dead nodes remain as isolated ids), which
        keeps the same schedule applicable — exactly the fault model
        topology transparency covers: any subset of at most ``n`` nodes is
        still a member of ``N_n^D``.
        """
        dead_set = {check_int(x, "dead node", minimum=0, maximum=self.n - 1)
                    for x in dead}
        kept = frozenset(
            e for e in self.edges if e[0] not in dead_set and e[1] not in dead_set
        )
        return Topology(self.n, kept)


def _cap_degrees(edges: list[tuple[int, int]], n: int, d: int,
                 rng: np.random.Generator) -> frozenset[tuple[int, int]]:
    """Randomly drop edges until every degree is at most *d*."""
    adj: list[set[int]] = [set() for _ in range(n)]
    kept: set[tuple[int, int]] = set()
    order = list(edges)
    rng.shuffle(order)  # type: ignore[arg-type]
    for u, v in order:
        if len(adj[u]) < d and len(adj[v]) < d:
            adj[u].add(v)
            adj[v].add(u)
            kept.add((min(u, v), max(u, v)))
    return frozenset(kept)


def unit_disk(n: int, d: int, *, radius: float = 0.35, side: float = 1.0,
              rng: np.random.Generator | None = None) -> Topology:
    """Random unit-disk network in a ``side x side`` square, degree-capped to *d*.

    Nodes are placed uniformly at random; an edge joins every pair within
    *radius*, and excess edges are randomly dropped until the degree bound
    holds (keeping the network inside ``N_n^D``, as the paper's class
    requires).  The classic model for sensor fields with a common radio
    range.
    """
    n, d = check_class_params(n, d)
    rng = rng if rng is not None else np.random.default_rng()
    pts = rng.uniform(0.0, side, size=(n, 2))
    diffs = pts[:, None, :] - pts[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diffs, diffs)
    within = dist2 <= radius * radius
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if within[i, j]
    ]
    return Topology(n, _cap_degrees(edges, n, d, rng))


def random_capped(n: int, d: int, *, p: float = 0.3,
                  rng: np.random.Generator | None = None) -> Topology:
    """Erdos-Renyi ``G(n, p)`` with degrees randomly capped to *d*."""
    n, d = check_class_params(n, d)
    p = check_probability(p, "p")
    rng = rng if rng is not None else np.random.default_rng()
    mask = rng.uniform(size=(n, n)) < p
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
    return Topology(n, _cap_degrees(edges, n, d, rng))


def grid(rows: int, cols: int) -> Topology:
    """A ``rows x cols`` 4-neighbour grid (max degree 4)."""
    rows = check_int(rows, "rows", minimum=1)
    cols = check_int(cols, "cols", minimum=1)
    n = rows * cols
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return Topology.from_edges(n, edges)


def ring(n: int) -> Topology:
    """A cycle over *n* nodes (degree 2)."""
    n = check_int(n, "n", minimum=3)
    return Topology.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int, d: int) -> Topology:
    """Node 0 joined to nodes ``1..d`` — the densest single neighbourhood.

    A star with exactly ``D`` leaves is the per-receiver worst case of the
    paper's throughput analysis: all of a hub's neighbours compete.
    """
    n, d = check_class_params(n, d)
    return Topology.from_edges(n, [(0, i) for i in range(1, d + 1)])


def random_tree(n: int, d: int, *, rng: np.random.Generator | None = None
                ) -> Topology:
    """A random tree with maximum degree *d* (typical convergecast shape).

    Grown by attaching each new node to a uniformly random existing node
    that still has residual degree.
    """
    n, d = check_class_params(n, d)
    rng = rng if rng is not None else np.random.default_rng()
    degree = [0] * n
    edges = []
    for v in range(1, n):
        candidates = [u for u in range(v) if degree[u] < d]
        if not candidates:  # pragma: no cover - impossible for d >= 2
            raise AssertionError("tree growth ran out of attachment points")
        u = int(candidates[int(rng.integers(len(candidates)))])
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
    return Topology.from_edges(n, edges)


def worst_case_regular(n: int, d: int, *, rng: np.random.Generator | None = None,
                       seed: int | None = None) -> Topology:
    """A random ``D``-regular network: every node at the degree bound.

    The worst case of section 5's throughput analysis — each node has
    exactly ``D`` neighbours.  Requires ``n * D`` even (standard handshake
    condition).  Steger and Wormald's pairing supplies the graph, drawn
    from ``random.Random(seed)`` exactly as networkx 3.x's
    ``random_regular_graph`` draws it, so a seed yields the same edges
    under either; with neither *seed* nor *rng* it draws from the
    :mod:`random` module's global instance, as networkx does.
    """
    n, d = check_class_params(n, d)
    if (n * d) % 2 != 0:
        raise ValueError(f"a {d}-regular graph needs n*D even; got n={n}, D={d}")
    if seed is None and rng is not None:
        seed = int(rng.integers(2**31 - 1))
    draw = random if seed is None else random.Random(seed)
    edges = None
    while edges is None:  # a failed attempt restarts on the same stream
        edges = _try_pairing(n, d, draw)
    return Topology(n, frozenset(edges))


def _try_pairing(n: int, d: int, draw) -> set[tuple[int, int]] | None:
    """One pairing attempt: pair shuffled stubs, re-pair the clashes.

    Each round shuffles the remaining stubs with *draw* (a
    ``random.Random`` or the :mod:`random` module) and pairs them off; a
    pair that would be a self-loop or a repeated edge returns both stubs
    to the next round, in first-clash order.  None when no unjoined pair
    is left among the clashing nodes.
    """
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * d
    while stubs:
        clashes: dict[int, int] = {}
        draw.shuffle(stubs)
        pairs = iter(stubs)
        for u, v in zip(pairs, pairs):
            if u > v:
                u, v = v, u
            if u != v and (u, v) not in edges:
                edges.add((u, v))
            else:
                clashes[u] = clashes.get(u, 0) + 1
                clashes[v] = clashes.get(v, 0) + 1
        if not _can_pair(edges, clashes):
            return None
        stubs = [u for u, count in clashes.items() for _ in range(count)]
    return edges


def _can_pair(edges: set[tuple[int, int]], clashes: dict[int, int]) -> bool:
    """True while some two clashing nodes are not yet joined.

    networkx's check, kept as it is: the swap inside the inner loop makes
    ``u`` a running minimum, so some pairs are never looked at and an
    attempt can be given up that could have gone on.  The same verdicts
    are needed for the same draws.
    """
    if not clashes:
        return True
    for u in clashes:
        for v in clashes:
            if u == v:
                break
            if u > v:
                u, v = v, u
            if (u, v) not in edges:
                return True
    return False
