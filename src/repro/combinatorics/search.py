"""Exact extremal search for small cover-free families.

How good are the classical constructions?  For tiny parameters the
question can be *settled* rather than estimated: this module computes, by
exhaustive branch-and-bound over block choices, the maximum number of
blocks ``f(L, d)`` a ``d``-cover-free family over ``L`` ground elements
can have (optionally with a fixed block size ``w``).

Two classical sanity anchors the tests pin down:

* ``d = 1`` is Sperner's theorem: ``f(L, 1) = C(L, floor(L/2))``;
* the Fano plane's 7 lines are a maximum 2-cover-free family of 3-sets
  over 7 points.

The search is exponential — it is a verification instrument for the
tests (the Fano anchor backs the maximality claim in
``docs/substrates.md``), not a construction path.  Symmetry is broken
by enumerating candidate blocks in a fixed order and only appending
blocks later in that order.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from repro._validation import check_int
from repro.combinatorics.coverfree import CoverFreeFamily, can_cover

__all__ = ["max_cover_free_family", "max_cover_free_size", "sperner_capacity"]


def sperner_capacity(ground: int) -> int:
    """Sperner's theorem: the maximum size of a 1-cover-free family on
    *ground* points is ``C(ground, ground // 2)`` (the middle layer)."""
    ground = check_int(ground, "ground", minimum=1)
    return comb(ground, ground // 2)


def _candidate_blocks(ground: int, block_size: int | None) -> list[int]:
    """All candidate blocks in a fixed enumeration order.

    With a fixed *block_size* only that layer is enumerated.  Without one,
    an optimal antichain can be assumed... cannot in general — supersets of
    chosen blocks remain legal as long as no block is covered — so every
    nonempty subset is a candidate.
    """
    masks = []
    sizes = [block_size] if block_size is not None else range(1, ground + 1)
    for w in sizes:
        for combo in combinations(range(ground), w):
            m = 0
            for e in combo:
                m |= 1 << e
            masks.append(m)
    return masks


def _still_cover_free(blocks: list[int], new: int, d: int) -> bool:
    """Incremental check: does appending *new* keep the family d-cover-free?

    Only violations involving *new* can appear: either *new* is covered by
    d existing blocks, or *new* completes a cover of an existing block.
    """
    others = blocks
    if can_cover(new, others, d):
        return False
    for i, b in enumerate(blocks):
        rest = [c for j, c in enumerate(blocks) if j != i]
        # new must participate, so cover b with new plus d-1 others.
        residue = b & ~new
        if can_cover(residue, rest, d - 1):
            return False
    return True


def max_cover_free_family(ground: int, d: int, *,
                          block_size: int | None = None,
                          limit: int | None = None) -> CoverFreeFamily:
    """An exact maximum d-cover-free family over ``0 .. ground-1``.

    Branch and bound over the fixed candidate order; *limit* (if given)
    stops the search as soon as a family of that size is found, turning
    the call into a feasibility check.  Exponential — keep ``ground``
    below ~8 for unrestricted block sizes.
    """
    ground = check_int(ground, "ground", minimum=1)
    d = check_int(d, "d", minimum=1)
    if block_size is not None:
        block_size = check_int(block_size, "block_size", minimum=1,
                               maximum=ground)
    candidates = _candidate_blocks(ground, block_size)
    best: list[int] = []

    def rec(start: int, chosen: list[int]) -> bool:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
            if limit is not None and len(best) >= limit:
                return True
        # Bound: even taking every remaining candidate cannot beat best.
        if len(chosen) + (len(candidates) - start) <= len(best):
            return False
        for idx in range(start, len(candidates)):
            cand = candidates[idx]
            if _still_cover_free(chosen, cand, d):
                chosen.append(cand)
                if rec(idx + 1, chosen):
                    return True
                chosen.pop()
        return False

    rec(0, [])
    return CoverFreeFamily(ground, tuple(best))


def max_cover_free_size(ground: int, d: int, *,
                        block_size: int | None = None) -> int:
    """Size of the exact maximum family (see :func:`max_cover_free_family`)."""
    return max_cover_free_family(ground, d, block_size=block_size).size
