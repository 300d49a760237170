"""Cover-free families: the combinatorial core behind topology transparency.

A family of blocks ``B_0, ..., B_{n-1}`` over a ground set ``[L]`` is
*d-cover-free* when no block is contained in the union of any ``d`` others.
Requirement 1 of the paper says a non-sleeping schedule ``<T>`` is
topology-transparent for ``N_n^D`` exactly when the transmission-slot sets
``tran(x)`` form a ``D``-cover-free family over the frame's slots.

This module provides:

* :class:`CoverFreeFamily` — blocks stored as Python-int bitmasks (the
  frame is short, so single machine-word set algebra beats NumPy here);
* an **exact** ``d``-cover-freeness decision procedure based on a
  branch-and-bound set-cover search (with dominated-candidate elimination
  and fewest-candidates-first branching);
* a **randomized refuter** for instances too large for the exact search;
* constructions from polynomial codes (orthogonal arrays), Steiner triple
  systems, projective/affine planes, and the trivial identity family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro._validation import check_int
from repro.combinatorics.gf import field, prime_powers
from repro.combinatorics.orthogonal import polynomial_code
from repro.combinatorics.steiner import affine_plane, projective_plane, steiner_triple_system

__all__ = ["CoverFreeFamily", "mask_from_set", "list_from_mask", "set_from_mask",
           "can_cover", "max_coverage"]


def mask_from_set(elements: Iterable[int]) -> int:
    """Pack an iterable of non-negative ints into a bitmask."""
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


def list_from_mask(mask: int) -> list[int]:
    """Unpack a bitmask into its set bit positions, ascending.

    Peels the lowest set bit (``mask & -mask``) once per member, so the
    cost follows the popcount rather than the highest bit position.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def set_from_mask(mask: int) -> frozenset[int]:
    """Unpack a bitmask into a frozenset of bit positions."""
    return frozenset(list_from_mask(mask))


def _prune_dominated(candidates: list[int]) -> list[int]:
    """Drop candidates that are subsets of another candidate.

    For the *existence* question "can r candidates cover the target" it is
    always at least as good to use a superset, so dominated candidates can
    be discarded.  Quadratic, but candidate lists are small.
    """
    # Sorting by popcount descending lets us only test against bigger sets.
    cands = sorted(set(candidates), key=lambda m: -m.bit_count())
    kept: list[int] = []
    for c in cands:
        if not any(c & ~k == 0 for k in kept):
            kept.append(c)
    return kept


def can_cover(target: int, candidates: Sequence[int], r: int) -> bool:
    """Exact decision: can the union of at most *r* candidates cover *target*?

    Branch and bound over the uncovered element with the fewest covering
    candidates; this is the standard exact set-cover search and is fast for
    the shallow depths (``r = D`` or ``D - 1``) that topology-transparency
    checking needs.
    """
    target = check_int(target, "target", minimum=0)
    r = check_int(r, "r", minimum=0)
    if target == 0:
        return True
    if r == 0:
        return False
    useful = _prune_dominated([c & target for c in candidates if c & target])

    def rec(remaining: int, depth: int, cands: list[int]) -> bool:
        if remaining == 0:
            return True
        if depth == 0:
            return False
        cands = [c for c in cands if c & remaining]
        if not cands:
            return False
        # Bound: even the 'depth' largest candidates cannot cover remaining.
        sizes = sorted((c & remaining).bit_count() for c in cands)
        if sum(sizes[-depth:]) < remaining.bit_count():
            return False
        # Branch on the uncovered bit with fewest covering candidates.
        best_bit = -1
        best_owners: list[int] = []
        probe = remaining
        while probe:
            bit = probe & -probe
            owners = [c for c in cands if c & bit]
            if not owners:
                return False
            if best_bit == -1 or len(owners) < len(best_owners):
                best_bit, best_owners = bit, owners
                if len(owners) == 1:
                    break
            probe &= probe - 1
        for c in best_owners:
            if rec(remaining & ~c, depth - 1, cands):
                return True
        return False

    return rec(target, r, useful)


def max_coverage(target: int, candidates: Sequence[int], r: int,
                 *, exact: bool = True) -> int:
    """Maximum number of *target* bits coverable by a union of *r* candidates.

    With ``exact=True`` a branch-and-bound search returns the true optimum
    (used by the exact minimum-throughput computation, where the adversary
    chooses the worst neighbourhood).  With ``exact=False`` a greedy sweep
    returns a lower bound on the optimum.
    """
    target = check_int(target, "target", minimum=0)
    r = check_int(r, "r", minimum=0)
    cands = _prune_dominated([c & target for c in candidates if c & target])
    if r == 0 or not cands:
        return 0
    if not exact:
        covered = 0
        for _ in range(r):
            best = max(cands, key=lambda c: (c & ~covered).bit_count(), default=0)
            gain = (best & ~covered).bit_count()
            if gain == 0:
                break
            covered |= best
        return (covered & target).bit_count()

    cands.sort(key=lambda m: -m.bit_count())
    best_seen = 0
    total = target.bit_count()

    def rec(covered: int, depth: int, start: int) -> None:
        nonlocal best_seen
        count = covered.bit_count()
        if count > best_seen:
            best_seen = count
        if depth == 0 or best_seen == total:
            return
        for idx in range(start, len(cands)):
            c = cands[idx]
            gain = (c & ~covered).bit_count()
            if gain == 0:
                continue
            # Bound: remaining picks cannot beat best_seen.
            if count + depth * cands[idx].bit_count() <= best_seen:
                break  # sorted by size, no later candidate can help more
            rec(covered | c, depth - 1, idx + 1)

    rec(0, r, 0)
    return best_seen


@dataclass(frozen=True)
class CoverFreeFamily:
    """An indexed family of blocks over the ground set ``0 .. ground-1``.

    ``blocks[i]`` is a bitmask over ground elements.  Instances are
    immutable; constructions are provided as classmethods.
    """

    ground: int
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        check_int(self.ground, "ground", minimum=1)
        limit = 1 << self.ground
        for i, b in enumerate(self.blocks):
            if not isinstance(b, int) or b < 0 or b >= limit:
                raise ValueError(
                    f"block {i} is not a bitmask over [0, {self.ground})"
                )

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_sets(cls, ground: int, sets: Iterable[Iterable[int]]) -> "CoverFreeFamily":
        """Build a family from explicit element sets."""
        ground = check_int(ground, "ground", minimum=1)
        blocks = []
        for s in sets:
            elems = sorted(set(s))
            if elems and (elems[0] < 0 or elems[-1] >= ground):
                raise ValueError(f"set {elems} not within ground [0, {ground})")
            blocks.append(mask_from_set(elems))
        return cls(ground, tuple(blocks))

    @classmethod
    def trivial(cls, n: int) -> "CoverFreeFamily":
        """The identity family: block ``i`` is ``{i}``; d-cover-free for all d.

        Corresponds to classical one-slot-per-node TDMA.
        """
        n = check_int(n, "n", minimum=1)
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_polynomial_code(cls, q: int, k: int, count: int | None = None
                             ) -> "CoverFreeFamily":
        """Family from the polynomial code over ``GF(q)`` with degree <= k.

        Block ``r`` contains ground element ``x * q + f_r(x)`` for every
        field element ``x``; the ground set has ``q**2`` elements (slot
        ``(subframe, position)`` pairs).  Distinct degree-<=k polynomials
        agree in at most ``k`` points, so each pairwise intersection has at
        most ``k`` elements and the family is ``d``-cover-free whenever
        ``d * k < q`` (blocks have exactly ``q`` elements).
        """
        rows = polynomial_code(q, k, count)
        ground = q * q
        blocks = []
        for row in rows:
            blocks.append(mask_from_set(int(x) * q + int(v) for x, v in enumerate(row)))
        return cls(ground, tuple(blocks))

    @classmethod
    def from_steiner_triple_system(cls, v: int, count: int | None = None
                                   ) -> "CoverFreeFamily":
        """Family whose blocks are (a prefix of) the triples of an STS(v).

        Triples pairwise intersect in at most one point, so the family is
        2-cover-free (d*1 < 3 for d <= 2).
        """
        blocks = steiner_triple_system(v)
        if count is not None:
            count = check_int(count, "count", minimum=1, maximum=len(blocks))
            blocks = blocks[:count]
        return cls.from_sets(v, blocks)

    @classmethod
    def from_projective_plane(cls, q: int, count: int | None = None
                              ) -> "CoverFreeFamily":
        """Family whose blocks are (a prefix of) the lines of PG(2, q).

        Lines have ``q+1`` points and pairwise meet in exactly one point, so
        the family is ``q``-cover-free.
        """
        v, lines = projective_plane(q)
        if count is not None:
            count = check_int(count, "count", minimum=1, maximum=len(lines))
            lines = lines[:count]
        return cls.from_sets(v, lines)

    @classmethod
    def from_transversal_design(cls, k: int, m: int, count: int | None = None
                                ) -> "CoverFreeFamily":
        """Family from (a prefix of) the blocks of a ``TD(k, m)``.

        Blocks have ``k`` points and pairwise meet in at most one, so the
        family is ``(k - 1)``-cover-free over ``k * m`` points — for *any*
        order ``m`` the MOLS construction supports (prime powers give the
        full ``k <= m + 1``; composites are bounded by MacNeish).
        """
        from repro.combinatorics.latin import transversal_design

        points, blocks = transversal_design(k, m)
        if count is not None:
            count = check_int(count, "count", minimum=1, maximum=len(blocks))
            blocks = blocks[:count]
        return cls.from_sets(points, blocks)

    @classmethod
    def from_affine_plane(cls, q: int, count: int | None = None
                          ) -> "CoverFreeFamily":
        """Family whose blocks are (a prefix of) the lines of AG(2, q).

        Lines have ``q`` points and pairwise meet in at most one point, so
        the family is ``(q-1)``-cover-free.
        """
        v, lines = affine_plane(q)
        if count is not None:
            count = check_int(count, "count", minimum=1, maximum=len(lines))
            lines = lines[:count]
        return cls.from_sets(v, lines)

    # -- properties ---------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of blocks in the family."""
        return len(self.blocks)

    def block_sets(self) -> list[frozenset[int]]:
        """The blocks as frozensets (convenience accessor for display/tests)."""
        return [set_from_mask(b) for b in self.blocks]

    def block_sizes(self) -> np.ndarray:
        """Array of block cardinalities."""
        return np.array([b.bit_count() for b in self.blocks], dtype=np.int64)

    def min_pairwise_margin(self) -> int:
        """``min_block_size - max_pairwise_intersection`` over the family.

        A positive margin ``g`` certifies ``d``-cover-freeness for every
        ``d < min_size / max_intersection`` style bounds; exposed mainly for
        diagnostics on constructed families.
        """
        sizes = self.block_sizes()
        max_inter = 0
        for i in range(self.size):
            for j in range(i + 1, self.size):
                inter = (self.blocks[i] & self.blocks[j]).bit_count()
                if inter > max_inter:
                    max_inter = inter
        return int(sizes.min()) - max_inter

    # -- cover-freeness ------------------------------------------------------
    def is_d_cover_free(self, d: int, *, exact: bool = True,
                        samples: int = 2000, rng: np.random.Generator | None = None
                        ) -> bool:
        """Decide (exact) or test (randomized) whether the family is d-cover-free.

        exact=True runs the branch-and-bound set-cover search for every
        block — a decision procedure.  exact=False samples *samples* random
        ``(block, d-subset)`` pairs and can only refute; ``True`` then means
        "no violation found".
        """
        d = check_int(d, "d", minimum=1)
        if self.size <= d:
            # No d distinct other blocks exist; vacuously cover-free unless
            # some block is covered by ALL others.
            d = self.size - 1
            if d <= 0:
                return all(b != 0 for b in self.blocks)
        if exact:
            for i, b in enumerate(self.blocks):
                if b == 0:
                    return False
                others = [c for j, c in enumerate(self.blocks) if j != i]
                if can_cover(b, others, d):
                    return False
            return True
        rng = rng if rng is not None else np.random.default_rng()
        n = self.size
        for _ in range(samples):
            i = int(rng.integers(n))
            if self.blocks[i] == 0:
                return False
            choices = rng.choice(n - 1, size=d, replace=False)
            union = 0
            for c in choices:
                j = int(c) + (1 if int(c) >= i else 0)
                union |= self.blocks[j]
            if self.blocks[i] & ~union == 0:
                return False
        return True

    def cover_free_strength(self, max_d: int | None = None) -> int:
        """Largest d for which the family is d-cover-free (exact; 0 if none).

        Cover-freeness is antitone in d, so a linear scan upward suffices.
        """
        limit = max_d if max_d is not None else self.size - 1
        strength = 0
        for d in range(1, max(limit, 0) + 1):
            if self.is_d_cover_free(d):
                strength = d
            else:
                break
        return strength

    def find_violation(self, d: int) -> tuple[int, tuple[int, ...]] | None:
        """Return ``(i, cover_indices)`` witnessing a d-cover violation, or None.

        Exhaustive over the covering subsets found by a DFS mirroring
        :func:`can_cover`; used to produce counterexamples in diagnostics.
        """
        d = check_int(d, "d", minimum=1)
        from itertools import combinations

        for i, b in enumerate(self.blocks):
            if b == 0:
                return (i, ())
            others = [(j, c) for j, c in enumerate(self.blocks) if j != i]
            # Restrict to candidates intersecting b to keep the search small.
            useful = [(j, c & b) for j, c in others if c & b]
            for combo in combinations(useful, min(d, len(useful))):
                union = 0
                for _, c in combo:
                    union |= c
                if b & ~union == 0:
                    return (i, tuple(j for j, _ in combo))
        return None


def smallest_polynomial_parameters(n: int, d: int) -> tuple[int, int]:
    """Smallest-frame ``(q, k)`` for a d-cover-free polynomial family of size n.

    Searches degrees ``k`` and prime powers ``q`` subject to the
    sufficiency conditions ``q >= k*d + 1`` (cover-freeness) and
    ``q**(k+1) >= n`` (enough codewords), minimizing the frame length
    ``q**2``.  Since the frame length is increasing in q, for each k the
    smallest admissible q is optimal, and larger k only helps while it
    lowers that q; the scan stops once k exceeds ``log_2 n``.
    """
    n = check_int(n, "n", minimum=1)
    d = check_int(d, "d", minimum=1)
    best: tuple[int, int] | None = None
    best_frame = None
    k = 1
    while True:
        # q must satisfy both constraints.
        q_min = max(k * d + 1, _ceil_root(n, k + 1), 2)
        q = next(prime_powers(q_min))
        frame = q * q
        if best_frame is None or frame < best_frame:
            best, best_frame = (q, k), frame
        if (1 << (k + 1)) >= n and k * d + 1 >= _ceil_root(n, k + 1):
            # Larger k can no longer reduce q below k*d+1, which only grows.
            break
        k += 1
    assert best is not None
    return best


def _ceil_root(n: int, r: int) -> int:
    """Smallest integer x with x**r >= n."""
    if n <= 1:
        return 1
    x = max(1, round(n ** (1.0 / r)))
    while x**r >= n:
        x -= 1
    while x**r < n:
        x += 1
    return x
