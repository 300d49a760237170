"""Declarative SLOs: objectives, compliance, and burn rates — all pure.

The paper's pitch is *guaranteed worst-case* behavior; the serving
stack's equivalent is a service-level objective ("99% of provisions
answer within 1s") evaluated continuously against its own metrics.
This module keeps that evaluation a pure function — metrics snapshot
in, verdict out — so the same code backs the server's ``/slo``
endpoint, the ``repro obs slo`` CLI (exit 1 on a violated objective,
for CI gates), and plain unit tests with hand-built snapshots.

Two objective kinds, both computed from the **existing** instruments
(no new measurement paths):

* ``latency`` — the fraction of observations of a histogram metric at
  or under ``threshold_s`` must be >= ``target``.  Compliance reads the
  cumulative bucket counts at the nearest bucket bound >= the
  threshold (fixed buckets cannot answer arbitrary quantiles exactly;
  pick thresholds on bucket bounds — the default serve buckets include
  0.1, 0.25, 0.5, 1.0, 2.5 ...).
* ``availability`` — the fraction of a counter metric's series whose
  ``code`` label is not a 5xx status must be >= ``target``.

**Error-budget burn** normalizes "how bad is it": with target 0.99 the
budget is 1% bad; a burn of 1.0 spends the budget exactly at the rate
allowed, 10.0 spends it 10x too fast.  :func:`evaluate` reports the
point-in-time burn over a whole snapshot; :class:`BurnRateTracker`
holds timestamped ``(good, total)`` samples and reports **rolling**
burn rates over several windows at once (the multi-window alerting
pattern: page on fast burn over short windows, ticket on slow burn
over long ones).  :func:`validate_report` checks a report document
against its schema.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro._validation import header_problems, is_a, required_fields

__all__ = ["Objective", "ObjectiveResult", "evaluate", "good_total",
           "validate_report", "BurnRateTracker", "default_serve_objectives",
           "SLO_REPORT_FORMAT", "SLO_REPORT_VERSION"]

#: ``format`` marker of the report document ``evaluate`` produces.
SLO_REPORT_FORMAT = "repro-slo"
#: Schema version of the report document.
SLO_REPORT_VERSION = 1

#: The objective kinds :func:`good_total` can compute.
KINDS = ("latency", "availability")

#: Windows, in seconds, of :meth:`BurnRateTracker.burn_rates`.
_BURN_WINDOWS_S = (60.0, 300.0, 3600.0)
#: Samples a :class:`BurnRateTracker` keeps; the oldest go first.
_BURN_SAMPLES = 1024


@dataclass(frozen=True)
class Objective:
    """One declarative service-level objective.

    Attributes
    ----------
    name:
        Identifier of the objective (unique within a report).
    kind:
        ``latency`` (histogram threshold) or ``availability``
        (counter 5xx classification).
    metric:
        The metric the objective reads — a histogram name for
        ``latency``, a counter name for ``availability``.
    target:
        Required good fraction in ``(0, 1)`` — e.g. 0.99.
    threshold_s:
        Latency bound in seconds (``latency`` kind only); evaluated at
        the nearest histogram bucket bound >= this value.
    code_label:
        Label whose values classify availability (default ``code``);
        values starting with ``5`` count as bad.
    """

    name: str
    kind: str
    metric: str
    target: float
    threshold_s: float | None = None
    code_label: str = "code"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}; "
                             f"pick from {list(KINDS)}")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be a fraction in (0, 1)")
        if self.kind == "latency":
            if self.threshold_s is None or self.threshold_s <= 0:
                raise ValueError(
                    "a latency objective needs a positive threshold_s")

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (objectives files, report documents)."""
        doc: dict[str, Any] = {"name": self.name, "kind": self.kind,
                               "metric": self.metric, "target": self.target}
        if self.threshold_s is not None:
            doc["threshold_s"] = self.threshold_s
        if self.code_label != "code":
            doc["code_label"] = self.code_label
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "Objective":
        """Build an objective from its :meth:`to_dict` form; unknown
        keys raise (objectives files should not silently drift)."""
        known = {"name", "kind", "metric", "target", "threshold_s",
                 "code_label"}
        extra = set(doc) - known
        if extra:
            raise ValueError(f"unknown objective field(s) {sorted(extra)}")
        return cls(name=doc["name"], kind=doc["kind"], metric=doc["metric"],
                   target=float(doc["target"]),
                   threshold_s=doc.get("threshold_s"),
                   code_label=doc.get("code_label", "code"))


@dataclass(frozen=True)
class ObjectiveResult:
    """Point-in-time verdict of one objective against one snapshot.

    ``compliance`` is the good fraction (1.0 when the metric has no
    observations yet — an empty service has violated nothing), and
    ``budget_burn`` = ``(1 - compliance) / (1 - target)``: 1.0 means
    the error budget is being spent exactly at the allowed rate.
    """

    objective: Objective
    good: float
    total: float
    compliance: float
    budget_burn: float
    ok: bool

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (one entry of the report document)."""
        return {"objective": self.objective.to_dict(), "good": self.good,
                "total": self.total, "compliance": self.compliance,
                "budget_burn": self.budget_burn, "ok": self.ok}


def good_total(objective: Objective,
               snapshot: Mapping[str, Any]) -> tuple[float, float]:
    """``(good, total)`` event counts of *objective* in *snapshot*.

    Pure — *snapshot* is a :meth:`MetricsRegistry.snapshot` document.
    A metric absent from the snapshot counts as ``(0, 0)``.
    """
    if objective.kind == "latency":
        doc = snapshot.get("histograms", {}).get(objective.metric)
        if doc is None:
            return 0.0, 0.0
        bounds = [float(b) for b in doc.get("buckets", ())]
        index = bisect_left(bounds, float(objective.threshold_s))
        good = total = 0.0
        for entry in doc.get("series", ()):
            counts = entry["counts"]
            good += sum(counts[:index + 1])
            total += entry["count"]
        return good, total
    doc = snapshot.get("counters", {}).get(objective.metric)
    if doc is None:
        return 0.0, 0.0
    good = total = 0.0
    for entry in doc.get("series", ()):
        value = float(entry["value"])
        total += value
        code = str(entry.get("labels", {}).get(objective.code_label, ""))
        if not code.startswith("5"):
            good += value
    return good, total


def evaluate(objectives: Iterable[Objective],
             snapshot: Mapping[str, Any],
             burn_rates: Mapping[str, Mapping[str, float | None]]
             | None = None) -> dict[str, Any]:
    """Evaluate *objectives* against *snapshot*; returns the report doc.

    Pure function: snapshot in, verdict out.  The report declares its
    own schema (``format``/``version``), carries one
    :class:`ObjectiveResult` dict per objective plus a top-level ``ok``
    (every objective met), and optionally folds in rolling *burn_rates*
    from a :class:`BurnRateTracker`.
    """
    results = []
    overall_ok = True
    for objective in objectives:
        good, total = good_total(objective, snapshot)
        compliance = good / total if total > 0 else 1.0
        burn = (1.0 - compliance) / (1.0 - objective.target)
        ok = compliance >= objective.target
        overall_ok = overall_ok and ok
        result = ObjectiveResult(objective, good, total, compliance,
                                 burn, ok).to_dict()
        if burn_rates is not None and objective.name in burn_rates:
            result["burn_rates"] = dict(burn_rates[objective.name])
        results.append(result)
    return {"format": SLO_REPORT_FORMAT, "version": SLO_REPORT_VERSION,
            "ok": overall_ok, "objectives": results}


def validate_report(doc: object) -> list[str]:
    """Every way *doc* breaks the :func:`evaluate` report schema.

    Empty when valid.  The header, a boolean ``ok``, and an
    ``objectives`` list whose entries carry the :class:`Objective`
    fields without a default, the numeric
    ``good``/``total``/``compliance``/``budget_burn`` and a boolean
    ``ok``.
    """
    if not isinstance(doc, dict):
        return [f"report must be a JSON object, got {type(doc).__name__}"]
    problems = header_problems(doc, SLO_REPORT_FORMAT, SLO_REPORT_VERSION)
    if not isinstance(doc.get("ok"), bool):
        problems.append("missing boolean 'ok'")
    entries = doc.get("objectives")
    if not isinstance(entries, list):
        return problems + ["missing 'objectives' list"]
    required = required_fields(Objective)
    for i, entry in enumerate(entries):
        where = f"objectives[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be an object")
            continue
        objective = entry.get("objective")
        if not isinstance(objective, dict):
            problems.append(f"{where}: missing 'objective' object")
        else:
            for name, kind in required.items():
                value = objective.get(name)
                if not is_a(value, kind):
                    problems.append(f"{where}.objective.{name}: must be "
                                    f"{getattr(kind, '__name__', 'numeric')}, "
                                    f"got {value!r}")
        for name in ("good", "total", "compliance", "budget_burn"):
            value = entry.get(name)
            if not is_a(value, (int, float)):
                problems.append(f"{where}.{name}: must be numeric, "
                                f"got {value!r}")
        if not isinstance(entry.get("ok"), bool):
            problems.append(f"{where}: missing boolean 'ok'")
    return problems


@dataclass
class BurnRateTracker:
    """Rolling multi-window burn rates from periodic snapshot samples.

    Call :meth:`sample` with the current metrics snapshot (the ``/slo``
    endpoint does this per scrape); :meth:`burn_rates` then reports,
    per objective and window (60 s, 300 s and 3600 s), how fast the
    error budget burned over that window — ``delta_bad / delta_total /
    (1 - target)`` between the oldest and the newest sample inside the
    window, or None when the window holds fewer than two samples or saw
    no events.  The tracker keeps the last 1024 samples.  *clock* is
    injectable so tests pin time.

    The snapshots come from one live registry, whose counts only grow
    (a counter cannot be decremented, a histogram only adds
    observations), so a window's delta is its newest counts minus its
    oldest.
    """

    objectives: Sequence[Objective]
    clock: Callable[[], float] = time.monotonic
    _samples: deque[tuple[float, dict[str, tuple[float, float]]]] = \
        field(default_factory=lambda: deque(maxlen=_BURN_SAMPLES))

    def sample(self, snapshot: Mapping[str, Any]) -> None:
        """Record ``(good, total)`` of every objective at ``clock()``."""
        self._samples.append((self.clock(), {
            obj.name: good_total(obj, snapshot) for obj in self.objectives}))

    def burn_rates(self) -> dict[str, dict[str, float | None]]:
        """``{objective: {window: burn | None}}`` as of the last sample."""
        if not self._samples:
            return {obj.name: {f"{w:g}s": None for w in _BURN_WINDOWS_S}
                    for obj in self.objectives}
        now, newest = self._samples[-1]
        oldest = {window: next(counts for ts, counts in self._samples
                               if now - ts <= window)
                  for window in _BURN_WINDOWS_S}
        out: dict[str, dict[str, float | None]] = {}
        for obj in self.objectives:
            good1, total1 = newest[obj.name]
            rates: dict[str, float | None] = {}
            for window, counts in oldest.items():
                good0, total0 = counts[obj.name]
                delta_total = total1 - total0
                delta_bad = (total1 - good1) - (total0 - good0)
                rates[f"{window:g}s"] = (
                    delta_bad / delta_total / (1.0 - obj.target)
                    if delta_total > 0 else None)
            out[obj.name] = rates
        return out


def default_serve_objectives() -> list[Objective]:
    """The serve tier's stock objectives over its existing metrics.

    99% of provision/plan requests answer in under 1 s, and 99.9% of
    answers are not 5xx.
    """
    return [
        Objective(name="serve-latency", kind="latency",
                  metric="repro_serve_request_seconds",
                  target=0.99, threshold_s=1.0),
        Objective(name="serve-availability", kind="availability",
                  metric="repro_serve_requests_total",
                  target=0.999),
    ]
