"""The Figure 2 construction: non-sleeping schedule -> duty-cycled schedule.

Given a topology-transparent non-sleeping schedule ``<T>`` and energy
parameters ``alpha_T, alpha_R`` with ``alpha_T + alpha_R <= n``, the
algorithm emits, for every source slot ``i``:

1. a division of ``T[i]`` into ``k_T = ceil(|T[i]| / alpha_T*)`` subsets of
   size exactly ``min(alpha_T*, |T[i]|)`` (subsets may overlap — the last
   chunk is the final ``alpha_T*`` elements);
2. a division of ``R[i] = V - T[i]`` into ``k_R = ceil(|R[i]| / alpha_R)``
   subsets of size ``min(alpha_R, |R[i]|)``;
3. one constructed slot per ``(T-chunk, R-chunk)`` pair, padding the
   receiver set with nodes outside the transmitter chunk up to ``alpha_R``
   (line 8 of Figure 2).

``alpha_T*`` is Theorem 4's optimal per-slot transmitter count
``min(alpha_T, ~ (n - D)/D)``; :func:`construct_exact` skips the
optimization and uses caller-specified chunk sizes (the remark after
Theorem 6).

The paper proves the choice of division and padding does not affect
correctness (Theorem 6), frame length (Theorem 7) or average worst-case
throughput (Theorem 8).  Two division strategies are provided:

* ``balanced=False`` — contiguous chunks (overlapping last chunk);
* ``balanced=True`` — the section 7 balanced-energy variant: cyclic,
  evenly-spaced chunks in which every element of the divided set appears in
  the same number of subsets, plus round-robin receiver padding.  When the
  chunk size does not divide the set size this needs
  ``m / gcd(m, size) >= ceil(m / size)`` chunks, trading frame length for
  exact energy balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from repro._validation import check_class_params, check_int
from repro.combinatorics.coverfree import list_from_mask
from repro.core.schedule import Schedule
from repro.core.throughput import optimal_transmitters_constrained

__all__ = [
    "construct",
    "construct_exact",
    "construct_detailed",
    "ConstructionResult",
    "frame_length_formula",
    "chunk_count",
    "check_alphas",
    "check_source",
    "contiguous_chunks",
    "balanced_chunks",
]


def contiguous_chunks(elems: list[int], size: int) -> list[list[int]]:
    """Divide *elems* into ``ceil(m/size)`` chunks of size ``min(size, m)``.

    Chunks are contiguous runs; when ``size`` does not divide ``m`` the last
    chunk is the final ``size`` elements and overlaps its predecessor, which
    keeps every chunk at the exact size Figure 2's line 3 requires.
    """
    m = len(elems)
    if m == 0:
        return []
    size = min(check_int(size, "size", minimum=1), m)
    k = chunk_count(m, size)
    out = [elems[j * size:(j + 1) * size] for j in range(k - 1)]
    out.append(elems[m - size:])
    return out


def chunk_count(m: int, size: int, *, balanced: bool = False) -> int:
    """How many chunks Figure 2 divides an *m*-element set into.

    ``ceil(m / size)`` for :func:`contiguous_chunks` and
    ``m / gcd(m, min(size, m))`` for :func:`balanced_chunks`; an empty
    set has none.  Integer arithmetic only, so Theorem 7's frame length
    and the planner's closed-form scores stay exact.
    """
    if m == 0:
        return 0
    if balanced:
        return m // gcd(m, min(size, m))
    return -(-m // size)


def balanced_chunks(elems: list[int], size: int) -> list[list[int]]:
    """Divide *elems* into evenly-covering cyclic chunks of equal size.

    Emits ``m / gcd(m, size)`` chunks of size ``min(size, m)`` starting at
    offsets ``0, size, 2*size, ...`` modulo ``m``; every element appears in
    exactly ``size / gcd(m, size)`` chunks, realizing the balanced-energy
    division of section 7.  Coincides with :func:`contiguous_chunks` count
    when ``size`` divides ``m``.
    """
    m = len(elems)
    if m == 0:
        return []
    size = min(check_int(size, "size", minimum=1), m)
    k = chunk_count(m, size, balanced=True)
    out = []
    for j in range(k):
        start = (j * size) % m
        chunk = [elems[(start + t) % m] for t in range(size)]
        out.append(chunk)
    return out


@dataclass(frozen=True)
class ConstructionResult:
    """Output of :func:`construct_detailed`.

    Attributes
    ----------
    schedule:
        The constructed ``(alpha_T, alpha_R)``-schedule ``<T_bar, R_bar>``.
    alpha_t_star:
        The per-slot transmitter budget actually used for the T-divisions.
    alpha_r:
        The per-slot receiver budget.
    slot_origin:
        ``slot_origin[k]`` is the source-slot index whose iteration of the
        Figure 2 outer loop emitted constructed slot ``k`` (the sets
        ``I_i`` in the proofs of Theorems 8 and 9).
    source:
        The input non-sleeping schedule ``<T>``.
    """

    schedule: Schedule
    alpha_t_star: int
    alpha_r: int
    slot_origin: tuple[int, ...]
    source: Schedule


def _validate_inputs(source: Schedule, alpha_t: int, alpha_r: int) -> None:
    check_alphas(source.n, alpha_t, alpha_r)
    check_source(source)


def check_alphas(n: int, alpha_t: int, alpha_r: int) -> tuple[int, int]:
    """``(alpha_t, alpha_r)``, or Figure 2's error when they do not fit *n*.

    Both must be positive integers with ``alpha_T + alpha_R <= n``, the
    room line 8 needs to pad every receiver set to ``alpha_R``.
    """
    alpha_t = check_int(alpha_t, "alpha_t", minimum=1)
    alpha_r = check_int(alpha_r, "alpha_r", minimum=1)
    if alpha_t + alpha_r > n:
        raise ValueError(
            "need alpha_T + alpha_R <= n for receiver padding; "
            f"got {alpha_t} + {alpha_r} > {n}"
        )
    return alpha_t, alpha_r


def check_source(source: Schedule) -> Schedule:
    """*source*, or the ``ValueError`` Figure 2 raises for a sleeping one."""
    if not source.is_non_sleeping():
        raise ValueError("the source schedule must be non-sleeping (R[i] = V - T[i])")
    return source


def _run_construction(source: Schedule, chunk_t: int, alpha_r: int,
                      balanced: bool) -> ConstructionResult:
    """Core of Figure 2 given a fixed T-chunk size (``alpha_T*``)."""
    n = source.n
    divide = balanced_chunks if balanced else contiguous_chunks
    tx_out: list[int] = []
    rx_out: list[int] = []
    origin: list[int] = []
    pad_pointer = 0  # round-robin start for balanced receiver padding
    for i, (t_source, r_source) in enumerate(zip(source.tx, source.rx)):
        t_chunks = divide(list_from_mask(t_source), chunk_t)
        r_chunks = divide(list_from_mask(r_source), alpha_r)
        for t_chunk in t_chunks:
            t_mask = 0
            for v in t_chunk:
                t_mask |= 1 << v
            for r_chunk in r_chunks:
                r_mask = 0
                for v in r_chunk:
                    r_mask |= 1 << v
                deficit = alpha_r - len(r_chunk)
                if deficit > 0:
                    # Line 8: top up with nodes outside T_bar[k] (and not
                    # already receiving).  Contiguous mode scans ascending
                    # ids; balanced mode round-robins to spread the extra
                    # awake slots across nodes.
                    forbidden = t_mask | r_mask
                    added = 0
                    for step in range(n):
                        cand = (pad_pointer + step) % n if balanced else step
                        bit = 1 << cand
                        if forbidden & bit:
                            continue
                        r_mask |= bit
                        forbidden |= bit
                        added += 1
                        if added == deficit:
                            if balanced:
                                pad_pointer = (cand + 1) % n
                            break
                    if added < deficit:  # pragma: no cover - guarded by validation
                        raise AssertionError(
                            "receiver padding ran out of nodes; "
                            "alpha_T + alpha_R <= n validation is buggy"
                        )
                tx_out.append(t_mask)
                rx_out.append(r_mask)
                origin.append(i)
    schedule = Schedule(n, tuple(tx_out), tuple(rx_out))
    return ConstructionResult(schedule, chunk_t, alpha_r, tuple(origin), source)


def construct_detailed(source: Schedule, d: int, alpha_t: int, alpha_r: int,
                       *, balanced: bool = False) -> ConstructionResult:
    """Figure 2's main program, returning the schedule plus provenance.

    Computes ``alpha_T* = min(alpha_T, ~ (n-D)/D)`` per Theorem 4 and runs
    ``Construct(alpha_T*, alpha_R, <T>)``.
    """
    n, d = check_class_params(source.n, d)
    _validate_inputs(source, alpha_t, alpha_r)
    at_star = optimal_transmitters_constrained(n, d, alpha_t)
    if at_star < 1:
        raise ValueError(
            f"Theorem 4 optimal transmitter count is {at_star} for "
            f"(n={n}, D={d}, alpha_T={alpha_t}); no useful schedule exists"
        )
    return _run_construction(source, at_star, alpha_r, balanced)


def construct(source: Schedule, d: int, alpha_t: int, alpha_r: int,
              *, balanced: bool = False) -> Schedule:
    """Figure 2's main program: a TT ``(alpha_T, alpha_R)``-schedule.

    Parameters
    ----------
    source:
        A topology-transparent non-sleeping schedule ``<T>`` for
        ``N_n^D`` (transparency is the caller's precondition, exactly as
        in the paper; it is *not* re-verified here because the exact check
        can dominate the construction cost — use
        :func:`repro.core.transparency.is_topology_transparent`).
    d:
        The degree bound ``D`` of the target network class.
    alpha_t, alpha_r:
        Per-slot transmitter/receiver budgets, ``alpha_T + alpha_R <= n``.
    balanced:
        Use the section 7 balanced-energy divisions (see module docstring).
    """
    return construct_detailed(source, d, alpha_t, alpha_r, balanced=balanced).schedule


def construct_exact(source: Schedule, alpha_t_prime: int, alpha_r_prime: int,
                    *, balanced: bool = False) -> Schedule:
    """``Construct(alpha_T', alpha_R', <T>)`` without the Theorem 4 optimization.

    Per the remark after Theorem 6: if ``|T[i]| >= alpha_T'`` for all slots,
    every constructed slot has *exactly* ``alpha_T'`` transmitters and
    ``alpha_R'`` receivers.
    """
    alpha_t_prime = check_int(alpha_t_prime, "alpha_t_prime", minimum=1)
    _validate_inputs(source, alpha_t_prime, alpha_r_prime)
    return _run_construction(source, alpha_t_prime, alpha_r_prime, balanced).schedule


def frame_length_formula(source: Schedule, alpha_t_star: int, alpha_r: int,
                         *, balanced: bool = False) -> tuple[int, int]:
    """Theorem 7: the constructed frame length and its closed-form upper bound.

    Returns ``(exact, upper_bound)`` where ``exact`` is
    ``sum_i k_T(i) * k_R(i)`` (with the chunk counts of the selected
    division strategy) and ``upper_bound`` is
    ``ceil(Max / aT*) * ceil((n - Min) / aR) * L`` — the paper's bound for
    the contiguous division (it may be exceeded by the balanced variant,
    whose chunk counts can be larger; the exact value is always returned).
    """
    alpha_t_star = check_int(alpha_t_star, "alpha_t_star", minimum=1)
    alpha_r = check_int(alpha_r, "alpha_r", minimum=1)
    n = source.n
    exact = sum(chunk_count(m, alpha_t_star, balanced=balanced)
                * chunk_count(n - m, alpha_r, balanced=balanced)
                for m in source.tx_counts)
    maximum = max(source.tx_counts)
    minimum = min(source.tx_counts)
    bound = chunk_count(maximum, alpha_t_star) \
        * chunk_count(n - minimum, alpha_r) * source.frame_length
    return exact, bound
