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

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable

from repro._validation import check_class_params, doc_field
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
from repro.core.schedule import Schedule
from repro.core.serialization import schedule_to_dict
from repro.obs.tracing import span
# Unused by src: benchmarks/e2e/layers.py wraps it until ROADMAP item 1.
from repro.service.runtime import execute_tasks  # noqa: F401
from repro.service.store import ScheduleStore, StoreStats

__all__ = ["ProvisionRequest", "ProvisionResult", "BatchReport",
           "provision_batch", "provision_batch_report"]


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
        return cls(n=doc_field(doc, "n", int, what="request"),
                   d=doc_field(doc, "d", int, what="request"),
                   max_duty=doc_field(doc, "max_duty", (int, float, str),
                                      what="request"),
                   balanced=doc_field(doc, "balanced", bool, what="request",
                                      default=False))

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable echo of the request."""
        max_duty = self.max_duty
        if isinstance(max_duty, Fraction):
            max_duty = str(max_duty)
        return {"n": self.n, "d": self.d, "max_duty": max_duty,
                "balanced": self.balanced}


class _ScheduleTexts:
    """``json.dumps(schedule_to_dict(schedule))`` of recently served
    schedules, keyed by the schedule's value and bounded by the texts'
    total length, least recently used out first.

    A :class:`~repro.core.schedule.Schedule` is a frozen, hashable value
    that fixes its document, so a text is only ever served for a schedule
    equal to the one it was encoded from.  Any thread may look up or
    fill: the lock covers the dict operations alone and encoding happens
    outside it, so two threads missing one schedule may both encode it,
    to the same text.
    """

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._texts: OrderedDict[Schedule, str] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._texts)

    def text(self, schedule: Schedule,
             doc: dict[str, Any] | None = None) -> str:
        """The schedule's document text; a miss encodes *doc*, which must
        be ``schedule_to_dict(schedule)``, or the schedule itself.  A text
        longer than the bound is returned but not kept."""
        with self._lock:
            text = self._texts.get(schedule)
            if text is not None:
                self._texts.move_to_end(schedule)
                return text
        text = json.dumps(schedule_to_dict(schedule) if doc is None else doc)
        if len(text) <= self.max_bytes:
            with self._lock:
                old = self._texts.pop(schedule, None)
                self.nbytes += len(text) - (0 if old is None else len(old))
                self._texts[schedule] = text
                while self.nbytes > self.max_bytes:
                    _, dropped = self._texts.popitem(last=False)
                    self.nbytes -= len(dropped)
        return text

    def clear(self) -> None:
        """Forget every text."""
        with self._lock:
            self._texts.clear()
            self.nbytes = 0


#: Total length of the schedule texts the process keeps (JSON text is
#: ASCII: one byte per character).  A text holds 5.1 KiB at
#: (n, D, budget) = (24, 3, 1/2), 22 KiB at (48, 5, 1/2), 57 KiB at
#: (100, 4, 2/5) and 162 KiB at (200, 8, 2/5), and 7.3 KiB on average
#: over serve-cold's classes, so 4 MiB keeps the store's 256-entry LRU
#: front at serve sizes.
_SCHEDULE_TEXT_BYTES = 4 << 20
_SCHEDULE_TEXTS = _ScheduleTexts(_SCHEDULE_TEXT_BYTES)


@dataclass(frozen=True)
class ProvisionResult:
    """Outcome of one request within a batch.

    :meth:`to_dict` is the result line's document and :meth:`to_json` its
    text, which ``repro provision`` and ``repro serve`` write.  The
    process encodes each schedule's node lists once and keeps the text
    (up to 4 MiB of texts), so a repeated answer encodes only its small
    fields.

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
    """

    request: ProvisionRequest
    plan: Plan | None
    from_cache: bool = False
    error: str | None = None

    def to_dict(self, *, include_schedule: bool = True) -> dict[str, Any]:
        """JSONL result line; with *include_schedule*, embeds the flashable
        schedule document of :mod:`repro.core.serialization`."""
        doc: dict[str, Any] = {"request": self.request.to_dict()}
        if self.error is not None:
            doc["error"] = self.error
            return doc
        assert self.plan is not None
        doc.update(self.plan.to_dict())
        doc["from_cache"] = self.from_cache
        if include_schedule:
            doc["schedule"] = schedule_to_dict(
                self.plan.schedule,
                meta=self.plan.meta(self.request.d, self.request.balanced))
        return doc

    def to_json(self, *, include_schedule: bool = True) -> str:
        """The JSON text of :meth:`to_dict`, byte for byte.

        Equal to ``json.dumps(self.to_dict(include_schedule=...))``, with
        the schedule document's text taken from the process's memo, so
        the node lists are encoded again only after the memo evicts it."""
        if self.error is not None or not include_schedule:
            return json.dumps(self.to_dict(include_schedule=include_schedule))
        head = json.dumps(self.to_dict(include_schedule=False))
        schedule = _SCHEDULE_TEXTS.text(self.plan.schedule)
        meta = self.plan.meta(self.request.d, self.request.balanced)
        # Both texts end in the "}" of their object; the schedule's meta
        # goes last, as schedule_to_dict(meta=) puts it.
        return (f'{head[:-1]}, "schedule": {schedule[:-1]}, '
                f'"meta": {json.dumps(meta)}}}}}')

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ProvisionResult":
        """Inverse of :meth:`to_dict` — rebuild a result from its JSON line.

        This is what ``repro call provision`` and the serve client use to
        round-trip server responses; ``from_dict(r.to_dict()).to_dict()``
        equals ``r.to_dict()`` exactly.  Success documents must embed the
        ``schedule`` payload (``to_dict(include_schedule=True)``) — a plan
        cannot be reconstructed without its slot tables.  Strict like
        :meth:`ProvisionRequest.from_dict`: an unknown, missing or
        mistyped field raises a ``ValueError`` naming the field, and the
        plan's fields are read by :meth:`~repro.core.planner.Plan.from_dict`.
        """
        if not isinstance(doc, dict):
            raise ValueError("result must be a JSON object")
        request = ProvisionRequest.from_dict(
            doc_field(doc, "request", dict, what="result"))
        if "error" not in doc:
            return cls(request,
                       Plan.from_dict(doc, also=("request", "from_cache")),
                       from_cache=doc_field(doc, "from_cache", bool,
                                            what="result", default=False))
        unknown = set(doc) - {"request", "error"}
        if unknown:
            raise ValueError(f"result has unknown fields: {sorted(unknown)}")
        return cls(request, None,
                   error=doc_field(doc, "error", str, what="result"))


@dataclass
class _Winner:
    """One distinct winning grid point, the requests it answers and,
    once built, their plan."""

    score: GridScore
    signatures: list[tuple] = field(default_factory=list)
    plan: Plan | None = None


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
                    # One encode serves every entry of this winner and,
                    # through the text memo, the results that answer them.
                    doc = schedule_to_dict(winner.plan.schedule)
                    for sig in winner.signatures:
                        store.put_plan(*sig, winner.plan, schedule_doc=doc)
                    _SCHEDULE_TEXTS.text(winner.plan.schedule, doc)

    results: list[ProvisionResult] = []
    for i, (request, sig) in enumerate(zip(requests, signatures)):
        if sig is None:
            result = ProvisionResult(request, None, error=errors[i])
        elif sig in winner_of:
            result = ProvisionResult(request, winners[winner_of[sig]].plan)
        elif resolved[sig] is None:
            result = ProvisionResult(request, None, error=(
                infeasible_budget_message(sig[0], request.max_duty, sig[3])))
        else:
            result = ProvisionResult(request, resolved[sig], from_cache=True)
        results.append(result)
    return BatchReport(results=results,
                       store_stats=store.stats if store is not None else None)
