"""Factories for topology-transparent non-sleeping schedules.

The Figure 2 construction consumes a topology-transparent non-sleeping
schedule ``<T>``.  The paper defers their construction to the literature
([2, 13, 22, 3, 5]); this module implements the cited families on top of
the :mod:`repro.combinatorics` substrate and exposes them as
:class:`repro.core.schedule.Schedule` objects:

=============================  ============================================
:func:`tdma_schedule`          classical TDMA: one transmitter per slot,
                               ``L = n``; TT for every ``D <= n - 1``
:func:`polynomial_schedule`    Chlamtac-Farago / Ju-Li: nodes are
                               polynomials of degree <= k over ``GF(q)``,
                               ``L = q**2``; TT for ``D <= (q-1)/k``
:func:`steiner_schedule`       nodes are triples of an STS(v), ``L = v``;
                               TT for ``D <= 2``
:func:`projective_plane_schedule`  nodes are lines of PG(2, q),
                               ``L = q**2 + q + 1``; TT for ``D <= q``
:func:`from_cover_free_family` any d-cover-free family -> schedule
:func:`best_nonsleeping_schedule`  picks the shortest frame among the
                               families above for given ``(n, D)``
=============================  ============================================

:data:`FAMILIES` names the five families: ``tdma``, ``polynomial``,
``steiner``, ``projective`` and ``mols``.  The sweep engine, the
``repro build --family`` option and :func:`best_nonsleeping_schedule`
build a family by its name through that one table.

Every factory performs automatic parameter selection (smallest admissible
design for the requested ``(n, D)``) and the mapping is the canonical one:
node ``x`` transmits exactly in the slots of its block, and — the schedule
being non-sleeping — receives in all other slots.
"""

from __future__ import annotations

from typing import Callable

from repro._validation import check_class_params
from repro.combinatorics.coverfree import CoverFreeFamily, smallest_polynomial_parameters
from repro.combinatorics.gf import prime_powers
from repro.core.schedule import Schedule

__all__ = [
    "tdma_schedule",
    "from_cover_free_family",
    "polynomial_schedule",
    "steiner_schedule",
    "projective_plane_schedule",
    "mols_schedule",
    "best_nonsleeping_schedule",
    "FAMILIES",
]


def from_cover_free_family(family: CoverFreeFamily, n: int) -> Schedule:
    """Non-sleeping schedule from the first *n* blocks of a cover-free family.

    Slot ``i`` corresponds to ground element ``i``; node ``x`` transmits in
    the slots of block ``x``.  If the family is ``D``-cover-free the result
    satisfies Requirement 1, hence is topology-transparent for ``N_n^D``
    (being non-sleeping, conditions (1) and (2) of Requirement 3 coincide:
    every non-transmitter is receiving).
    """
    if n > family.size:
        raise ValueError(
            f"family has {family.size} blocks but {n} nodes were requested"
        )
    tx = []
    for i in range(family.ground):
        slot_bit = 1 << i
        mask = 0
        for x in range(n):
            if family.blocks[x] & slot_bit:
                mask |= 1 << x
        tx.append(mask)
    full = (1 << n) - 1
    rx = tuple(full & ~t for t in tx)
    return Schedule(n, tuple(tx), rx)


def tdma_schedule(n: int) -> Schedule:
    """Classical TDMA: ``L = n`` slots, ``T[i] = {i}``, everyone else receives.

    Trivially topology-transparent for every ``D <= n - 1`` (each node owns
    a private collision-free slot), but its frame grows linearly in ``n``
    and each slot carries a single transmitter — the baseline the
    combinatorial constructions beat.
    """
    return from_cover_free_family(CoverFreeFamily.trivial(n), n)


def polynomial_schedule(n: int, d: int, *, q: int | None = None,
                        k: int | None = None) -> Schedule:
    """The polynomial (orthogonal-array) schedule for ``N_n^D``.

    Node ``x`` is the ``x``-th polynomial of degree <= k over ``GF(q)`` and
    transmits in slot ``sub * q + f_x(sub)`` of every subframe ``sub``;
    ``L = q**2``.  Distinct polynomials collide in at most ``k`` subframes,
    so ``D`` interferers can cover at most ``k * D < q`` of a node's ``q``
    transmission slots: the family is ``D``-cover-free.

    With ``q``/``k`` omitted, the smallest admissible frame is selected via
    :func:`repro.combinatorics.coverfree.smallest_polynomial_parameters`.
    """
    n, d = check_class_params(n, d)
    if (q is None) != (k is None):
        raise ValueError("provide both q and k, or neither")
    if q is None:
        q, k = smallest_polynomial_parameters(n, d)
    assert k is not None
    if k * d + 1 > q:
        raise ValueError(
            f"need q >= k*D + 1 for D-cover-freeness; got q={q}, k={k}, D={d}"
        )
    if q ** (k + 1) < n:
        raise ValueError(
            f"only {q**(k+1)} codewords available for n={n} nodes (q={q}, k={k})"
        )
    family = CoverFreeFamily.from_polynomial_code(q, k, count=n)
    return from_cover_free_family(family, n)


def steiner_schedule(n: int, d: int, *, v: int | None = None) -> Schedule:
    """Schedule from a Steiner triple system; supports ``D <= 2``.

    Node ``x`` transmits in the three slots of the ``x``-th triple of an
    ``STS(v)``; ``L = v``.  Triples pairwise share at most one point, so
    two interferers cover at most 2 of a node's 3 slots.

    With *v* omitted, the smallest admissible order with at least *n*
    triples (``v(v-1)/6 >= n``) is selected.
    """
    n, d = check_class_params(n, d)
    if d > 2:
        raise ValueError(
            f"Steiner triple systems give 2-cover-free families; D={d} > 2 "
            "needs the polynomial or projective-plane construction"
        )
    if v is None:
        v = 7
        while v % 6 not in (1, 3) or v * (v - 1) // 6 < n:
            v += 1
        # The cyclic (v == 1 mod 6) construction runs an exact difference-
        # triple search that turns exponential past v ~ 103; above that,
        # auto-selection takes the next Bose-constructible order instead
        # (direct construction at every scale, frame cost <= 4 slots).
        if v % 6 == 1 and v > 103:
            while v % 6 != 3:
                v += 1
    if v % 6 not in (1, 3):
        raise ValueError(f"an STS(v) needs v == 1,3 (mod 6); got v={v}")
    if v * (v - 1) // 6 < n:
        raise ValueError(
            f"STS({v}) has {v*(v-1)//6} triples; not enough for n={n} nodes"
        )
    family = CoverFreeFamily.from_steiner_triple_system(v, count=n)
    return from_cover_free_family(family, n)


def projective_plane_schedule(n: int, d: int, *, q: int | None = None) -> Schedule:
    """Schedule from the lines of ``PG(2, q)``; supports ``D <= q``.

    Node ``x`` transmits in the ``q + 1`` slots of the ``x``-th line;
    ``L = q**2 + q + 1``.  Lines pairwise meet in exactly one point, so
    ``D <= q`` interferers cover at most ``q`` of ``q + 1`` slots.

    With *q* omitted, the smallest prime power with ``q >= D`` and
    ``q**2 + q + 1 >= n`` is selected.
    """
    n, d = check_class_params(n, d)
    if q is None:
        gen = prime_powers(max(d, 2))
        q = next(gen)
        while q * q + q + 1 < n:
            q = next(gen)
    if q < d:
        raise ValueError(f"need q >= D for D-cover-freeness; got q={q}, D={d}")
    if q * q + q + 1 < n:
        raise ValueError(
            f"PG(2,{q}) has {q*q+q+1} lines; not enough for n={n} nodes"
        )
    family = CoverFreeFamily.from_projective_plane(q, count=n)
    return from_cover_free_family(family, n)


def mols_schedule(n: int, d: int, *, m: int | None = None,
                  k: int | None = None) -> Schedule:
    """Schedule from a transversal design ``TD(k, m)``; ``L = k * m``.

    Node ``x`` transmits in the ``k`` slots of the ``x``-th block; blocks
    pairwise share at most one slot, so the family is ``(k-1)``-cover-free
    and the schedule is topology-transparent for ``D <= k - 1``.  Unlike
    the polynomial family, the order ``m`` need not be a prime power —
    MacNeish's product supplies the Latin squares — which fills the frame-
    length gaps between consecutive prime powers.

    With ``m``/``k`` omitted: ``k = D + 1`` and the smallest ``m`` with
    ``m**2 >= n`` and ``macneish_bound(m) >= k - 2``.
    """
    from repro.combinatorics.latin import macneish_bound

    n, d = check_class_params(n, d)
    if (m is None) != (k is None):
        raise ValueError("provide both m and k, or neither")
    if m is None:
        k = d + 1
        m = 2
        while m * m < n or macneish_bound(m) < k - 2:
            m += 1
    assert k is not None
    if k < d + 1:
        raise ValueError(f"need k >= D + 1 for D-cover-freeness; got k={k}, D={d}")
    if m * m < n:
        raise ValueError(f"TD(k,{m}) has {m*m} blocks; not enough for n={n} nodes")
    family = CoverFreeFamily.from_transversal_design(k, m, count=n)
    return from_cover_free_family(family, n)


#: Family name -> builder ``(n, d) -> Schedule`` of the smallest admissible
#: design, in the order :func:`best_nonsleeping_schedule` breaks frame-length
#: ties.  Each builder finds its factory in this module's globals when it
#: is called, so a wrapper set on a module attribute (a timing harness, a
#: test's spy) sees every call made through the table.
FAMILIES: dict[str, Callable[[int, int], Schedule]] = {
    "tdma": lambda n, d: tdma_schedule(n),
    "polynomial": lambda n, d: polynomial_schedule(n, d),
    "steiner": lambda n, d: steiner_schedule(n, d),
    "projective": lambda n, d: projective_plane_schedule(n, d),
    "mols": lambda n, d: mols_schedule(n, d),
}


def best_nonsleeping_schedule(n: int, d: int) -> tuple[str, Schedule]:
    """Shortest-frame topology-transparent non-sleeping schedule for ``N_n^D``.

    Tries every family of :data:`FAMILIES` that has a design for the
    parameters (Steiner triple systems stop at ``D = 2``) and returns
    ``(family_name, schedule)`` minimizing the frame length (ties broken
    by the table's order).  TDMA always qualifies, so the call always
    succeeds.
    """
    n, d = check_class_params(n, d)
    candidates: list[tuple[str, Schedule]] = []
    for name, build in FAMILIES.items():
        try:
            candidates.append((name, build(n, d)))
        except ValueError:  # no design of this family for (n, D)
            continue
    return min(candidates, key=lambda item: item[1].frame_length)
