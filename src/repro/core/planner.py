"""Deployment planner: from an energy budget to a concrete schedule.

A user's question is rarely "give me an (alpha_T, alpha_R)-schedule"; it is
"my nodes may keep the radio on at most 30% of the time — what is the best
topology-transparent schedule for up to n nodes of degree at most D?".
This module answers it by searching the substrate families and the
``(alpha_T, alpha_R)`` grid, scoring each candidate with its *exact*
Theorem 2 average worst-case throughput and its exact awake fraction.

The search is exhaustive over a small grid: substrates are the library's
families, ``alpha_T`` ranges up to Theorem 4's saturation point (raising
it further provably cannot help), and for each ``alpha_T`` the largest
``alpha_R`` that still satisfies the duty budget is used (Theorem 4: the
bound is increasing in ``alpha_R``).  No candidate is built to be
scored: Theorems 2 and 7 give its score from the source's per-slot
counts (:func:`score_grid`), and only the winner is constructed and
checked against its score (:func:`confirm_score`).  The substrates
depend on ``(n, D)`` alone, so the process builds them once per pair
(:func:`candidate_sources`).

The pieces are public so that :mod:`repro.service.api` can score a
batch of requests and build each distinct winner once;
:func:`repro.service.api.provision_batch` is also the one path that
plans through a :mod:`repro.service.store` cache.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Any, Iterable, TypeVar

from repro._validation import (
    check_class_params,
    check_int,
    check_probability,
    doc_field,
    fraction_field,
)
from repro.core.construction import (
    check_alphas,
    check_source,
    chunk_count,
    construct_detailed,
)
from repro.obs.metrics import default_registry
from repro.obs.tracing import span
from repro.core.nonsleeping import (
    mols_schedule,
    polynomial_schedule,
    projective_plane_schedule,
    steiner_schedule,
    tdma_schedule,
)
from repro.core.schedule import Schedule
from repro.core.serialization import schedule_from_dict
from repro.core.throughput import (
    average_throughput,
    optimal_transmitters_constrained,
)

__all__ = [
    "Plan",
    "GridPoint",
    "GridScore",
    "plan_schedule",
    "candidate_sources",
    "duty_budget_fraction",
    "duty_grid",
    "score_grid",
    "select_best",
    "select_winner",
    "evaluate_grid_point",
    "confirm_score",
    "infeasible_budget_message",
]


@dataclass(frozen=True)
class Plan:
    """A planner recommendation.

    Attributes
    ----------
    schedule:
        The constructed topology-transparent duty-cycled schedule.
    family:
        The substrate family the source schedule came from.
    alpha_t, alpha_r:
        The energy parameters used by the construction.
    throughput:
        Exact average worst-case throughput (Theorem 2) in ``N_n^D``.
    duty_cycle:
        Exact average awake fraction of the schedule.
    frame_length:
        Constructed frame length (per-hop latency scale).

    :meth:`to_dict` and :meth:`from_dict` are the plan document's one
    codec: store entries and result lines carry it beside the embedded
    ``schedule`` document.
    """

    schedule: Schedule
    family: str
    alpha_t: int
    alpha_r: int
    throughput: Fraction
    duty_cycle: Fraction
    frame_length: int

    def to_dict(self) -> dict[str, Any]:
        """The plan document without its schedule, in result-line order;
        exact fractions are written as strings."""
        return {"family": self.family, "alpha_t": self.alpha_t,
                "alpha_r": self.alpha_r, "throughput": str(self.throughput),
                "duty_cycle": str(self.duty_cycle),
                "frame_length": self.frame_length}

    @classmethod
    def from_dict(cls, doc: dict[str, Any], *,
                  also: Iterable[str] = ()) -> "Plan":
        """Strict inverse of :meth:`to_dict`, reading the embedded
        ``schedule`` document as well.

        A missing, mistyped or unknown field raises a ``ValueError``
        naming it; the fields in *also* are the caller's to read.  The
        energy parameters must be at least 1, the fractions exact
        fraction strings, and ``frame_length`` the schedule's.
        """
        if not isinstance(doc, dict):
            raise ValueError("plan must be a JSON object")
        unknown = set(doc) - {"family", "alpha_t", "alpha_r", "throughput",
                              "duty_cycle", "frame_length", "schedule",
                              *also}
        if unknown:
            raise ValueError(f"plan has unknown fields: {sorted(unknown)}")
        schedule = schedule_from_dict(doc_field(doc, "schedule", dict,
                                                what="plan"))
        frame_length = doc_field(doc, "frame_length", int, what="plan")
        if frame_length != schedule.frame_length:
            raise ValueError(
                f"plan field 'frame_length' is {frame_length}, but the "
                f"embedded schedule has {schedule.frame_length} slots")
        return cls(
            schedule=schedule,
            family=doc_field(doc, "family", str, what="plan"),
            alpha_t=check_int(doc_field(doc, "alpha_t", int, what="plan"),
                              "alpha_t", minimum=1),
            alpha_r=check_int(doc_field(doc, "alpha_r", int, what="plan"),
                              "alpha_r", minimum=1),
            throughput=fraction_field(doc, "throughput", what="plan"),
            duty_cycle=fraction_field(doc, "duty_cycle", what="plan"),
            frame_length=frame_length,
        )

    def meta(self, d: int, balanced: bool) -> dict[str, Any]:
        """The ``meta`` of the plan's schedule document, for the class
        degree *d* and the *balanced* flag it was planned with."""
        return {"class_n": self.schedule.n, "class_d": d,
                "family": self.family, "alpha_t": self.alpha_t,
                "alpha_r": self.alpha_r, "balanced": balanced}


@dataclass(frozen=True)
class GridPoint:
    """One candidate evaluation of the planner's substrate × energy grid.

    Attributes
    ----------
    family:
        Name of the substrate family *source* came from.
    source:
        The topology-transparent non-sleeping substrate schedule.
    alpha_t, alpha_r:
        The energy parameters to construct with.
    """

    family: str
    source: Schedule
    alpha_t: int
    alpha_r: int


@dataclass(frozen=True)
class GridScore:
    """A :class:`GridPoint` with the exact throughput, duty cycle and
    frame length its construction would have, computed without it."""

    point: GridPoint
    throughput: Fraction
    duty_cycle: Fraction
    frame_length: int


#: ``(n, D)`` pairs whose substrates the process keeps.  An entry holds
#: about 11 KiB at n = 24 and 112 KiB at n = 200; 32 entries hold every
#: pair of a serve-cold or serve-hot benchmark run.
_SUBSTRATE_MEMO_SIZE = 32
#: Held across every memo lookup, so a pair missed by two threads at
#: once is built once.
_SUBSTRATE_LOCK = threading.Lock()


def candidate_sources(n: int, d: int) -> list[tuple[str, Schedule]]:
    """Every substrate family constructible for ``(n, D)``.

    The substrates depend on ``(n, D)`` alone, so each pair is built once
    per process (the last :data:`_SUBSTRATE_MEMO_SIZE` pairs are kept)
    and every call returns a fresh list of the same frozen schedules.
    Each call counts in ``repro_planner_substrate_lookups_total`` and
    each build in ``repro_planner_substrate_builds_total`` of the default
    registry.  Lookups take one lock, so a thread missing a pair another
    thread is building waits for that build instead of repeating it.
    """
    n, d = check_class_params(n, d)
    default_registry().counter(
        "repro_planner_substrate_lookups_total",
        "Planner substrate lookups (candidate_sources calls).").inc()
    with _SUBSTRATE_LOCK:
        return list(_substrates(n, d))


@functools.lru_cache(maxsize=_SUBSTRATE_MEMO_SIZE)
def _substrates(n: int, d: int) -> tuple[tuple[str, Schedule], ...]:
    """Build :func:`candidate_sources`' families for a checked ``(n, D)``."""
    default_registry().counter(
        "repro_planner_substrate_builds_total",
        "Planner substrate sets built (substrate memo misses).").inc()
    out: list[tuple[str, Schedule]] = [("tdma", tdma_schedule(n))]
    out.append(("polynomial", polynomial_schedule(n, d)))
    if d <= 2:
        out.append(("steiner", steiner_schedule(n, d)))
    out.append(("projective", projective_plane_schedule(n, d)))
    out.append(("mols", mols_schedule(n, d)))
    return tuple(out)


def duty_budget_fraction(max_duty: float | str | Fraction) -> Fraction:
    """Normalize a duty budget to one exact :class:`~fractions.Fraction`.

    Exact types (``Fraction``, ``int``, ``"3/10"``-style strings) pass
    through unchanged.  Floats are read as the decimal the caller typed —
    ``0.3`` means three tenths, not the nearest binary double — by
    snapping to the closest fraction with denominator at most ``10**9``.
    The conversion happens exactly once, so every downstream comparison
    (the per-candidate duty test and the ``floor(budget * n)`` awake-slot
    cap) is exact rational arithmetic.
    """
    if isinstance(max_duty, float):
        max_duty = check_probability(max_duty, "max_duty")
        return Fraction(max_duty).limit_denominator(10**9)
    try:
        budget = Fraction(max_duty)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"max_duty is not a valid fraction: {max_duty!r}") from exc
    if not 0 <= budget <= 1:
        raise ValueError(f"max_duty must lie in [0, 1], got {max_duty!r}")
    return budget


def duty_grid(n: int, d: int, budget: Fraction,
              sources: list[tuple[str, Schedule]]) -> list[GridPoint]:
    """Enumerate the planner's candidate grid for an exact duty *budget*.

    For each family, ``alpha_T`` ranges up to Theorem 4's saturation point
    and ``alpha_R`` is the largest value the budget allows:
    ``min(floor(budget * n) - alpha_T, n - alpha_T)`` (the duty cycle of a
    constructed schedule is ``(alpha_T* + alpha_R)/n`` per slot).  The
    awake-slot cap is computed with exact rational arithmetic — with the
    former float ``int(max_duty * n)`` a budget of ``0.3`` at ``n = 20``
    lost one awake slot to binary rounding.  ``(alpha_T, alpha_R)`` pairs
    already emitted for the same family are skipped, so no grid point is
    ever constructed (or cached, or farmed to a worker) twice.
    """
    n, d = check_class_params(n, d)
    alpha_cap = optimal_transmitters_constrained(n, d, n - 1)
    budget_slots = (budget.numerator * n) // budget.denominator
    points: list[GridPoint] = []
    seen: dict[str, set[tuple[int, int]]] = {}
    for name, source in sources:
        scored = seen.setdefault(name, set())
        for alpha_t in range(1, alpha_cap + 1):
            alpha_r = min(budget_slots - alpha_t, n - alpha_t)
            if alpha_r < 1:
                continue
            if (alpha_t, alpha_r) in scored:
                continue
            scored.add((alpha_t, alpha_r))
            points.append(GridPoint(name, source, alpha_t, alpha_r))
    return points


def score_grid(points: Iterable[GridPoint], d: int, *,
               balanced: bool = False) -> list[GridScore]:
    """Score grid points from their sources' counts (Theorems 2 and 7).

    Figure 2 turns a source slot with ``0 < m < n`` transmitters into
    ``k = k_T * k_R`` slots (:func:`~repro.core.construction.chunk_count`
    of ``m`` by ``alpha_T*`` and of ``n - m`` by ``alpha_R``), each with
    ``t = min(alpha_T*, m)`` transmitters and ``alpha_R`` receivers.
    Summed over the source's slots, ``k`` is the frame length,
    ``k (t + alpha_R)`` the awake node-slots and
    ``k t alpha_R C(n - t - 1, D - 1)`` Theorem 2's numerator, so the
    exact scores equal :func:`evaluate_grid_point`'s.  Raises the
    ``ValueError`` construction would: for unfit energy parameters, a
    sleeping source (checked once per source) or no emitted slot.
    """
    # Slots per transmitter count, by source id; holding the source keeps
    # its id from being reused by another one.
    counts: dict[int, tuple[Schedule, Iterable[tuple[int, int]]]] = {}
    scores = []
    for point in points:
        source = point.source
        n, d = check_class_params(source.n, d)
        if id(source) not in counts:
            check_source(source)
            counts[id(source)] = (source, Counter(source.tx_counts).items())
        tallies = counts[id(source)][1]
        alpha_t, alpha_r = check_alphas(n, point.alpha_t, point.alpha_r)
        alpha_t_star = optimal_transmitters_constrained(n, d, alpha_t)
        length = awake = weight = 0
        for m, slots in tallies:
            k = slots * chunk_count(m, alpha_t_star, balanced=balanced) \
                * chunk_count(n - m, alpha_r, balanced=balanced)
            if k:
                t = min(alpha_t_star, m)
                length += k
                awake += k * (t + alpha_r)
                weight += k * t * comb(n - t - 1, d - 1)
        if length == 0:
            raise ValueError("a schedule must have at least one slot")
        scores.append(GridScore(
            point,
            Fraction(weight * alpha_r,
                     n * (n - 1) * comb(n - 2, d - 1) * length),
            Fraction(awake, n * length), length))
    return scores


def evaluate_grid_point(point: GridPoint, d: int, *,
                        balanced: bool = False) -> Plan:
    """Construct and score one grid point, independent of any duty budget.

    Returns the full :class:`Plan` (schedule, exact Theorem 2 throughput,
    exact awake fraction).  The result depends only on
    ``(family, n, D, alpha_T, alpha_R, balanced)`` — never on the budget —
    which is what makes it a sound unit of parallel work.
    """
    with span("planner.evaluate", family=point.family,
              alpha_t=point.alpha_t, alpha_r=point.alpha_r):
        res = construct_detailed(point.source, d, point.alpha_t,
                                 point.alpha_r, balanced=balanced)
        return Plan(
            schedule=res.schedule,
            family=point.family,
            alpha_t=point.alpha_t,
            alpha_r=point.alpha_r,
            throughput=average_throughput(res.schedule, d),
            duty_cycle=res.schedule.average_duty_cycle(),
            frame_length=res.schedule.frame_length,
        )


_Scored = TypeVar("_Scored", Plan, GridScore)


def select_best(candidates: Iterable[_Scored]) -> _Scored | None:
    """Deterministic winner of a candidate sequence, or None if empty.

    Maximizes ``(throughput, -frame_length)`` with a *strict* comparison,
    so ties break toward the earliest candidate in iteration order — the
    shorter frame is the lower worst-case access delay.  Candidates are
    :class:`GridScore` records or :class:`Plan` objects alike.
    """
    best = None
    for candidate in candidates:
        if best is None or (candidate.throughput, -candidate.frame_length) \
                > (best.throughput, -best.frame_length):
            best = candidate
    return best


def select_winner(n: int, d: int, budget: Fraction,
                  sources: list[tuple[str, Schedule]], *,
                  balanced: bool = False) -> GridScore | None:
    """:func:`select_best` over the :func:`score_grid` scores of
    :func:`duty_grid` whose duty cycle fits *budget*, or None."""
    with span("planner.score", n=n, d=d, balanced=balanced):
        scores = score_grid(duty_grid(n, d, budget, sources), d,
                            balanced=balanced)
    return select_best(s for s in scores if s.duty_cycle <= budget)


def confirm_score(score: GridScore, plan: Plan) -> Plan:
    """*plan*, or ``RuntimeError`` unless its constructed ``(throughput,
    duty_cycle, frame_length)`` is exactly *score*'s closed form."""
    built = (plan.throughput, plan.duty_cycle, plan.frame_length)
    closed = (score.throughput, score.duty_cycle, score.frame_length)
    if built != closed:
        point = score.point
        raise RuntimeError(
            f"{point.family} (alpha_T={point.alpha_t}, alpha_R="
            f"{point.alpha_r}) was built as {tuple(map(str, built))}, but "
            f"its closed-form score is {tuple(map(str, closed))}")
    return plan


def infeasible_budget_message(n: int, max_duty, balanced: bool) -> str:
    """The error of a budget that admits no grid point."""
    return (f"no ({'balanced ' if balanced else ''}alpha_T, alpha_R) choice "
            f"fits duty budget {max_duty} for n={n} (need >= 2/n)")


def plan_schedule(n: int, d: int, max_duty: float | str | Fraction, *,
                  balanced: bool = False) -> Plan:
    """Best topology-transparent schedule within a duty-cycle budget.

    Parameters
    ----------
    n, d:
        The network class ``N_n^D``.
    max_duty:
        Maximum allowed average awake fraction in ``(0, 1]``; floats,
        exact fractions and ``"3/10"``-style strings are accepted (see
        :func:`duty_budget_fraction`).
    balanced:
        Use the balanced-energy divisions (section 7 variant).

    Returns the :class:`Plan` maximizing exact average worst-case
    throughput over the :func:`candidate_sources` families subject to
    ``duty_cycle <= max_duty``; ties break toward the shorter frame
    (lower latency).  Raises ``ValueError`` when the budget admits no
    schedule (it must allow at least 1 transmitter and 1 receiver per
    slot, i.e. ``max_duty >= 2/n``).  Every call searches afresh; to
    memoize plans in a store, use
    :func:`repro.service.api.provision_batch`.
    """
    n, d = check_class_params(n, d)
    budget = duty_budget_fraction(max_duty)
    with span("planner.plan", n=n, d=d, budget=str(budget),
              balanced=balanced):
        best = select_winner(n, d, budget, candidate_sources(n, d),
                             balanced=balanced)
        if best is None:
            raise ValueError(infeasible_budget_message(n, max_duty,
                                                       balanced))
        return confirm_score(best, evaluate_grid_point(best.point, d,
                                                        balanced=balanced))
