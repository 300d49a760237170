"""Batch schedule-provisioning API: many ``(n, D, duty)`` requests at once.

The deployment story of the paper is "compute a schedule offline, flash it
to motes"; at fleet scale that becomes a service answering batches of
per-class requests.  :func:`provision_batch` is that service's core:

1. duplicate requests collapse to one computation;
2. plan-level cache hits (via a :class:`~repro.service.store.ScheduleStore`)
   short-circuit entire searches;
3. every other request scores its planner grid in closed form
   (:func:`repro.core.planner.score_grid`) and picks its winner in grid
   order (:func:`repro.core.planner.select_best`), exactly as sequential
   :func:`repro.core.planner.plan_schedule` does;
4. only the batch's *distinct* winners are constructed, one after the
   other in this process, and each must score what the closed form said
   (:func:`repro.core.planner.confirm_score`).

Requests that fail (impossible class parameters, infeasible budgets) are
reported per-request via :attr:`ProvisionResult.error`; one bad request
never poisons the batch.  A construction is deterministic, so one that
raises is a bug, not a transient fault: it propagates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable

from repro._validation import check_class_params, check_int
from repro.core.planner import (
    GridScore,
    Plan,
    candidate_sources,
    confirm_score,
    duty_budget_fraction,
    evaluate_grid_point,
    infeasible_budget_message,
    select_winner,
)
from repro.core.serialization import schedule_from_dict, schedule_to_dict
from repro.obs.tracing import span
# Unused by src: benchmarks/e2e/layers.py wraps it until ROADMAP item 1.
from repro.service.runtime import execute_tasks  # noqa: F401
from repro.service.store import ScheduleStore, StoreStats

__all__ = ["ProvisionRequest", "ProvisionResult", "BatchReport",
           "provision_batch", "provision_batch_report"]


_KINDS = {str: "a string", int: "an integer", bool: "a boolean",
          dict: "a JSON object",
          (int, float, str): "a number or a fraction string"}
_MISSING = object()


def _field(doc: dict[str, Any], key: str, kind, default: Any = _MISSING, *,
           what: str = "result") -> Any:
    """``doc[key]`` if it is a *kind* (a bool is no number), else the
    ``ValueError`` naming *key*; *default* when the key is absent and
    optional."""
    if key not in doc:
        if default is _MISSING:
            raise ValueError(f"{what} missing field {key!r}")
        return default
    value = doc[key]
    if not isinstance(value, kind) or (isinstance(value, bool)
                                       and kind is not bool):
        raise ValueError(f"{what} field {key!r} must be {_KINDS[kind]}, "
                         f"got {type(value).__name__}")
    return value


def _fraction_field(doc: dict[str, Any], key: str) -> Fraction:
    """``doc[key]`` as an exact fraction string, or a ``ValueError``."""
    text = _field(doc, key, str)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"result field {key!r} is not a fraction: "
                         f"{text!r}") from None


@dataclass(frozen=True)
class ProvisionRequest:
    """One schedule request: a network class plus an energy budget.

    Attributes
    ----------
    n, d:
        The network class ``N_n^D``.
    max_duty:
        Duty budget; floats, exact fractions and ``"3/10"``-style strings
        are accepted (see
        :func:`repro.core.planner.duty_budget_fraction`).
    balanced:
        Use the section 7 balanced-energy divisions.
    """

    n: int
    d: int
    max_duty: float | str | Fraction
    balanced: bool = False

    def signature(self) -> tuple[int, int, Fraction, bool]:
        """Exact identity of the request — the deduplication key.

        Raises ``ValueError``/``TypeError`` when the request is invalid;
        :func:`provision_batch` converts that into a per-request error.
        """
        n, d = check_class_params(self.n, self.d)
        return n, d, duty_budget_fraction(self.max_duty), bool(self.balanced)

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ProvisionRequest":
        """Parse a JSONL request line (``n``, ``d``, ``max_duty``, opt. ``balanced``).

        Strict by design — this is the parse boundary for untrusted input
        (``repro provision`` files and the ``repro.serve`` HTTP body).
        Unknown keys and wrong-typed fields raise a ``ValueError`` naming
        the offending key; nothing mis-typed ever reaches the planner.
        """
        if not isinstance(doc, dict):
            raise ValueError("request must be a JSON object")
        missing = {"n", "d", "max_duty"} - set(doc)
        if missing:
            raise ValueError(f"request missing fields: {sorted(missing)}")
        unknown = set(doc) - {"n", "d", "max_duty", "balanced"}
        if unknown:
            raise ValueError(f"request has unknown fields: {sorted(unknown)}")
        return cls(n=_field(doc, "n", int, what="request"),
                   d=_field(doc, "d", int, what="request"),
                   max_duty=_field(doc, "max_duty", (int, float, str),
                                   what="request"),
                   balanced=_field(doc, "balanced", bool, False,
                                   what="request"))

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable echo of the request."""
        max_duty = self.max_duty
        if isinstance(max_duty, Fraction):
            max_duty = str(max_duty)
        return {"n": self.n, "d": self.d, "max_duty": max_duty,
                "balanced": self.balanced}


#: The fields :meth:`ProvisionResult.to_dict` writes for an error result
#: and for a plan.
_ERROR_FIELDS = frozenset({"request", "error"})
_PLAN_FIELDS = frozenset({"request", "family", "alpha_t", "alpha_r",
                          "throughput", "duty_cycle", "frame_length",
                          "from_cache", "schedule"})


@dataclass(frozen=True)
class ProvisionResult:
    """Outcome of one request within a batch.

    Attributes
    ----------
    request:
        The request this result answers.
    plan:
        The winning plan, or None when *error* is set.
    from_cache:
        True when the whole plan came from a plan-level cache hit
        (nothing of this request was scored or constructed).
    error:
        Human-readable failure description, or None on success.
    schedule_doc:
        ``schedule_to_dict(plan.schedule)`` when the batch already built
        it for the store entries of a freshly built winner, which
        :meth:`to_dict` then reuses instead of encoding the schedule
        again; None otherwise.  It is left out of ``==`` and ``repr``.
    """

    request: ProvisionRequest
    plan: Plan | None
    from_cache: bool = False
    error: str | None = None
    schedule_doc: dict[str, Any] | None = field(default=None, compare=False,
                                                repr=False)

    def to_dict(self, *, include_schedule: bool = True) -> dict[str, Any]:
        """JSONL result line; with *include_schedule*, embeds the flashable
        schedule document of :mod:`repro.core.serialization`."""
        doc: dict[str, Any] = {"request": self.request.to_dict()}
        if self.error is not None:
            doc["error"] = self.error
            return doc
        assert self.plan is not None
        doc.update({
            "family": self.plan.family,
            "alpha_t": self.plan.alpha_t,
            "alpha_r": self.plan.alpha_r,
            "throughput": str(self.plan.throughput),
            "duty_cycle": str(self.plan.duty_cycle),
            "frame_length": self.plan.frame_length,
            "from_cache": self.from_cache,
        })
        if include_schedule:
            meta = {
                "class_n": self.plan.schedule.n, "class_d": self.request.d,
                "family": self.plan.family, "alpha_t": self.plan.alpha_t,
                "alpha_r": self.plan.alpha_r,
                "balanced": self.request.balanced,
            }
            if self.schedule_doc is None:
                doc["schedule"] = schedule_to_dict(self.plan.schedule,
                                                   meta=meta)
            else:
                doc["schedule"] = {**self.schedule_doc, "meta": meta}
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ProvisionResult":
        """Inverse of :meth:`to_dict` — rebuild a result from its JSON line.

        This is what ``repro call provision`` and the serve client use to
        round-trip server responses; ``from_dict(r.to_dict()).to_dict()``
        equals ``r.to_dict()`` exactly.  Success documents must embed the
        ``schedule`` payload (``to_dict(include_schedule=True)``) — a plan
        cannot be reconstructed without its slot tables.  Strict like
        :meth:`ProvisionRequest.from_dict`: an unknown, missing or
        mistyped field, or a ``frame_length`` the embedded schedule
        disagrees with, raises a ``ValueError`` naming the field.
        """
        if not isinstance(doc, dict):
            raise ValueError("result must be a JSON object")
        unknown = set(doc) - (_ERROR_FIELDS if "error" in doc
                              else _PLAN_FIELDS)
        if unknown:
            raise ValueError(f"result has unknown fields: {sorted(unknown)}")
        request = ProvisionRequest.from_dict(_field(doc, "request", dict))
        if "error" in doc:
            return cls(request, None, error=_field(doc, "error", str))
        if "schedule" not in doc:
            raise ValueError("result missing field 'schedule' (serialize "
                             "with include_schedule=True to round-trip)")
        schedule = schedule_from_dict(_field(doc, "schedule", dict))
        frame_length = _field(doc, "frame_length", int)
        if frame_length != schedule.frame_length:
            raise ValueError(
                f"result field 'frame_length' is {frame_length}, but the "
                f"embedded schedule has {schedule.frame_length} slots")
        plan = Plan(
            schedule=schedule,
            family=_field(doc, "family", str),
            alpha_t=check_int(_field(doc, "alpha_t", int), "alpha_t",
                              minimum=1),
            alpha_r=check_int(_field(doc, "alpha_r", int), "alpha_r",
                              minimum=1),
            throughput=_fraction_field(doc, "throughput"),
            duty_cycle=_fraction_field(doc, "duty_cycle"),
            frame_length=frame_length,
        )
        return cls(request, plan,
                   from_cache=_field(doc, "from_cache", bool, False))


@dataclass
class _Winner:
    """One distinct winning grid point, the requests it answers and,
    once built, their plan and (with a store) its schedule document."""

    score: GridScore
    signatures: list[tuple] = field(default_factory=list)
    plan: Plan | None = None
    schedule_doc: dict[str, Any] | None = None


@dataclass
class BatchReport:
    """Full accounting of one :func:`provision_batch_report` run.

    Attributes
    ----------
    results:
        One :class:`ProvisionResult` per request, in request order —
        exactly what :func:`provision_batch` returns.
    store_stats:
        The live :class:`~repro.service.store.StoreStats` of the store
        used, or None when caching was disabled.
    """

    results: list[ProvisionResult]
    store_stats: StoreStats | None = None


def provision_batch(requests: Iterable[ProvisionRequest], *,
                    store: ScheduleStore | None = None
                    ) -> list[ProvisionResult]:
    """Answer a batch of provisioning requests, cached.

    Thin wrapper over :func:`provision_batch_report` that keeps the
    historical return type (results only).

    Parameters
    ----------
    requests:
        The batch; results come back in the same order.
    store:
        Optional :class:`~repro.service.store.ScheduleStore` (or anything
        honouring its plan protocol).  None disables caching entirely.
    """
    return provision_batch_report(requests, store=store).results


def provision_batch_report(requests: Iterable[ProvisionRequest], *,
                           store: ScheduleStore | None = None) -> BatchReport:
    """Like :func:`provision_batch`, returning the full :class:`BatchReport`.

    The report adds the store's hit/miss/corruption statistics.  Raises
    ``RuntimeError`` if a constructed winner does not score exactly what
    the closed form said (:func:`repro.core.planner.confirm_score`).
    """
    requests = list(requests)
    signatures: list[tuple | None] = []
    errors: dict[int, str] = {}
    for i, request in enumerate(requests):
        try:
            signatures.append(request.signature())
        except (ValueError, TypeError) as exc:
            signatures.append(None)
            errors[i] = str(exc)

    # Resolve each distinct signature once: a plan-cache hit, a budget
    # no grid point fits (None), or the winner the batch will construct.
    resolved: dict[tuple, Plan | None] = {}
    winner_of: dict[tuple, tuple] = {}
    winners: dict[tuple, _Winner] = {}
    with span("provision.plan", requests=len(requests)):
        for sig in signatures:
            if sig is None or sig in resolved or sig in winner_of:
                continue
            n, d, budget, balanced = sig
            if store is not None:
                hit = store.get_plan(n, d, budget, balanced)
                if hit is not None:
                    resolved[sig] = hit
                    continue
            best = select_winner(n, d, budget, candidate_sources(n, d),
                                 balanced=balanced)
            if best is None:
                resolved[sig] = None
                continue
            point = best.point
            key = winner_of[sig] = (n, d, point.family, point.alpha_t,
                                    point.alpha_r, balanced)
            winners.setdefault(key, _Winner(best)).signatures.append(sig)

    with span("provision.evaluate", winners=len(winners)):
        for winner in winners.values():
            _n, d, _budget, balanced = winner.signatures[0]
            winner.plan = evaluate_grid_point(winner.score.point, d,
                                              balanced=balanced)
            # Each winner's plan entries land the moment it is built, so
            # an interrupted batch resumes warm from plan-cache hits.
            with span("provision.store", signatures=len(winner.signatures)):
                confirm_score(winner.score, winner.plan)
                if store is not None:
                    # One encode serves every entry of this winner and
                    # the results that answer them.
                    winner.schedule_doc = schedule_to_dict(
                        winner.plan.schedule)
                    for sig in winner.signatures:
                        store.put_plan(*sig, winner.plan,
                                       schedule_doc=winner.schedule_doc)

    results: list[ProvisionResult] = []
    for i, (request, sig) in enumerate(zip(requests, signatures)):
        if sig is None:
            result = ProvisionResult(request, None, error=errors[i])
        elif sig in winner_of:
            winner = winners[winner_of[sig]]
            result = ProvisionResult(request, winner.plan,
                                     schedule_doc=winner.schedule_doc)
        elif resolved[sig] is None:
            result = ProvisionResult(request, None, error=(
                infeasible_budget_message(sig[0], request.max_duty, sig[3])))
        else:
            result = ProvisionResult(request, resolved[sig], from_cache=True)
        results.append(result)
    return BatchReport(results=results,
                       store_stats=store.stats if store is not None else None)
