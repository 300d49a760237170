"""Steiner triple systems and finite planes.

Colbourn, Ling and Syrotiuk ("Cover-free families and topology-transparent
scheduling for MANETs") obtain cover-free families — hence topology-
transparent schedules — from Steiner systems: the blocks of an
``S(2, k, v)`` pairwise intersect in at most one point, so a family that
assigns distinct blocks to nodes is ``(k-1)``-cover-free over the ``v``
points.  This module constructs the designs from scratch:

* :func:`steiner_triple_system` — an ``STS(v)`` for every admissible
  ``v === 1, 3 (mod 6)``:

  - ``v === 3 (mod 6)``: the Bose construction over an idempotent
    commutative quasigroup on ``Z_{2t+1}``;
  - ``v === 1 (mod 6)``: a cyclic system from a *difference-triple*
    partition of ``{1..3t}`` found by backtracking (existence for every
    admissible order is Peltesohn's theorem; the search is exact and its
    output is verified).

* :func:`projective_plane` — ``PG(2, q)``: ``q**2+q+1`` points and lines,
  lines of size ``q+1`` meeting pairwise in exactly one point.
* :func:`affine_plane` — ``AG(2, q)``: ``q**2`` points, ``q**2+q`` lines of
  size ``q``, pairwise meeting in at most one point.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro._validation import check_int
from repro.combinatorics.gf import field, is_prime_power

__all__ = [
    "steiner_triple_system",
    "is_steiner_triple_system",
    "difference_triples",
    "projective_plane",
    "affine_plane",
    "is_projective_plane",
]


def _bose_sts(v: int) -> list[frozenset[int]]:
    """Bose construction of STS(v) for v = 6t + 3.

    Points are ``Z_m x {0, 1, 2}`` with ``m = 2t + 1`` odd, flattened as
    ``point = i * 3 + layer``.  Uses the idempotent commutative quasigroup
    ``i o j = (i + j) * inv2  (mod m)`` where ``inv2 = (m + 1) // 2``.
    """
    m = v // 3
    inv2 = (m + 1) // 2
    blocks: list[frozenset[int]] = []
    for i in range(m):
        blocks.append(frozenset(i * 3 + layer for layer in range(3)))
    for i in range(m):
        for j in range(i + 1, m):
            h = ((i + j) * inv2) % m
            for layer in range(3):
                blocks.append(
                    frozenset(
                        (i * 3 + layer, j * 3 + layer, h * 3 + (layer + 1) % 3)
                    )
                )
    return blocks


def difference_triples(t: int, v: int) -> list[tuple[int, int, int]] | None:
    """Partition ``{1..3t}`` into t triples with ``a+b == c`` or ``a+b+c == v``.

    Each triple ``(a, b, c)`` is a *difference triple* for the cyclic group
    ``Z_v``: the base block ``{0, a, a+b}`` generates, under translation,
    every pair whose cyclic difference lies in ``{a, b, c}`` exactly once.
    A full partition therefore yields a cyclic ``STS(v)`` for ``v = 6t+1``.

    Returns None if no partition exists (never happens for admissible
    inputs, by Peltesohn's theorem, but the search is honest about failure).
    The branch-and-bound is exact but exponential; it is fast through
    ``t = 17`` (``v = 103``) and raises ``ValueError`` when its node budget
    is exhausted rather than hanging — larger Steiner orders should use
    ``v == 3 (mod 6)``, where the Bose construction is direct.
    """
    t = check_int(t, "t", minimum=1)
    top = 3 * t
    unused = [True] * (top + 1)  # index 0 unused sentinel

    out: list[tuple[int, int, int]] = []
    budget = [5_000_000]  # search-node cap; exceeded => give up honestly

    def largest_unused() -> int:
        for d in range(top, 0, -1):
            if unused[d]:
                return d
        return 0

    # Branch on the LARGEST unconsumed value: it is the most constrained
    # (few decompositions), which is what makes Skolem-style partition
    # searches tractable (the smallest-first direction stalls by t ~ 16).
    def search() -> bool:
        if budget[0] <= 0:
            raise _SearchBudgetExceeded()
        budget[0] -= 1
        z = largest_unused()
        if z == 0:
            return True
        unused[z] = False
        # Case 1: z = a + b is the sum of a triple.
        for a in range(1, (z + 1) // 2):
            b = z - a
            if a != b and unused[a] and unused[b]:
                unused[a] = unused[b] = False
                out.append((a, b, z))
                if search():
                    return True
                out.pop()
                unused[a] = unused[b] = True
        # Case 2: z sits in a wrap triple a + b + z = v (a < b < z, since
        # a + b = v - z > 3t >= z guarantees neither equals z).
        rest = v - z
        for a in range(max(1, rest - z + 1), (rest + 1) // 2):
            b = rest - a
            if a != b and b < z and b <= top and unused[a] and unused[b]:
                unused[a] = unused[b] = False
                out.append((a, b, z))
                if search():
                    return True
                out.pop()
                unused[a] = unused[b] = True
        unused[z] = True
        return False

    try:
        if search():
            return list(out)
    except _SearchBudgetExceeded:
        raise ValueError(
            f"difference-triple search for t={t} (v={v}) exceeded its node "
            "budget; beyond v ~ 103 use an order v == 3 (mod 6) (the Bose "
            "construction is direct at every scale) or another schedule "
            "family"
        ) from None
    return None


class _SearchBudgetExceeded(Exception):
    """Internal: the difference-triple search hit its node cap."""


def _cyclic_sts(v: int) -> list[frozenset[int]]:
    """Cyclic STS(v) for v = 6t + 1 from a difference-triple partition."""
    t = v // 6
    triples = difference_triples(t, v)
    if triples is None:  # pragma: no cover - impossible for admissible v
        raise AssertionError(
            f"difference-triple search failed for v={v}; "
            "Peltesohn's theorem says it must succeed - this is a bug"
        )
    blocks: list[frozenset[int]] = []
    for a, b, _c in triples:
        for shift in range(v):
            blocks.append(
                frozenset(((0 + shift) % v, (a + shift) % v, (a + b + shift) % v))
            )
    return blocks


def steiner_triple_system(v: int) -> list[frozenset[int]]:
    """Construct a Steiner triple system on the point set ``0 .. v-1``.

    An ``STS(v)`` exists iff ``v === 1 or 3 (mod 6)``; other orders raise
    ValueError.  The returned list has ``v(v-1)/6`` blocks of size 3 and
    every pair of points occurs in exactly one block.
    """
    v = check_int(v, "v", minimum=3)
    if v % 6 == 3:
        blocks = _bose_sts(v)
    elif v % 6 == 1:
        blocks = _cyclic_sts(v)
    else:
        raise ValueError(f"an STS(v) exists only for v == 1,3 (mod 6); got v={v}")
    expected = v * (v - 1) // 6
    if len(blocks) != expected:  # pragma: no cover - construction invariant
        raise AssertionError(
            f"STS({v}) produced {len(blocks)} blocks, expected {expected}"
        )
    return blocks


def is_steiner_triple_system(v: int, blocks: list[frozenset[int]]) -> bool:
    """Exhaustively verify that *blocks* is an STS on ``0 .. v-1``."""
    v = check_int(v, "v", minimum=3)
    seen: set[tuple[int, int]] = set()
    for block in blocks:
        if len(block) != 3 or not all(0 <= p < v for p in block):
            return False
        for pair in combinations(sorted(block), 2):
            if pair in seen:
                return False
            seen.add(pair)
    return len(seen) == v * (v - 1) // 2


def projective_plane(q: int) -> tuple[int, list[frozenset[int]]]:
    """The projective plane ``PG(2, q)`` for a prime power *q*.

    Returns ``(v, lines)`` where ``v = q**2 + q + 1`` is the number of
    points (indexed ``0 .. v-1``) and *lines* is the list of ``v`` lines,
    each a frozenset of ``q + 1`` point indices.  Any two distinct lines
    meet in exactly one point, which makes the lines a ``q``-cover-free
    family over the points.
    """
    if not is_prime_power(q):
        raise ValueError(f"q must be a prime power, got {q}")
    f = field(q)
    # Points: the representatives of the 1-dim subspaces of GF(q)^3 whose
    # first nonzero coordinate is 1, in lexicographic order — (0,0,1),
    # then (0,1,z), then (1,y,z).  This is the order a scan of GF(q)^3
    # first meets each subspace in, and it fixes every point and line
    # index the substrates and schedules are built from.
    points = np.array([(0, 0, 1)] + [(0, 1, z) for z in range(q)]
                      + [(1, y, z) for y in range(q) for z in range(q)])
    v = q * q + q + 1
    xs, ys, zs = points.T
    # Lines are also indexed by normalized coefficient vectors [a:b:c];
    # point (x,y,z) lies on line (a,b,c) iff ax + by + cz == 0, tested
    # for all points at once per line (O(v) working memory).
    lines: list[frozenset[int]] = []
    for a, b, c in points.tolist():
        dot = f.add_vec(f.add_vec(f.mul_vec(a, xs), f.mul_vec(b, ys)),
                        f.mul_vec(c, zs))
        members = frozenset(np.flatnonzero(dot == 0).tolist())
        if len(members) != q + 1:  # pragma: no cover - invariant
            raise AssertionError(
                f"line {(a, b, c)} of PG(2,{q}) has {len(members)} points"
            )
        lines.append(members)
    return v, lines


def affine_plane(q: int) -> tuple[int, list[frozenset[int]]]:
    """The affine plane ``AG(2, q)`` for a prime power *q*.

    Returns ``(v, lines)`` with ``v = q**2`` points (point ``(x, y)`` is
    index ``x * q + y``) and ``q**2 + q`` lines of size ``q``: the graphs
    ``y = m*x + b`` for all slopes/intercepts plus the vertical lines
    ``x = c``.  Two distinct lines meet in at most one point.
    """
    if not is_prime_power(q):
        raise ValueError(f"q must be a prime power, got {q}")
    f = field(q)
    lines: list[frozenset[int]] = []
    for m in range(q):
        for b in range(q):
            lines.append(
                frozenset(x * q + f.add(f.mul(m, x), b) for x in range(q))
            )
    for c in range(q):
        lines.append(frozenset(c * q + y for y in range(q)))
    return q * q, lines


def is_projective_plane(v: int, lines: list[frozenset[int]]) -> bool:
    """Verify the projective-plane axioms for *lines* over points ``0..v-1``.

    Checks: correct counts for some order ``q``, uniform line size ``q+1``,
    every pair of points on exactly one common line (which implies any two
    lines meet in exactly one point, by double counting).
    """
    v = check_int(v, "v", minimum=7)
    if not lines:
        return False
    size = len(next(iter(lines)))
    q = size - 1
    if q < 2 or v != q * q + q + 1 or len(lines) != v:
        return False
    seen: set[tuple[int, int]] = set()
    for line in lines:
        if len(line) != size or not all(0 <= p < v for p in line):
            return False
        for pair in combinations(sorted(line), 2):
            if pair in seen:
                return False
            seen.add(pair)
    return len(seen) == v * (v - 1) // 2
