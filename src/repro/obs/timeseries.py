"""Metrics over time: a bounded snapshot ring with reset-aware deltas.

A :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` is a point-in-time
document; trends need *sequences* of them.  :class:`SnapshotRing` keeps
the last ``capacity`` timestamped snapshots in memory (the schedule
server scrapes its own registry into one on a background task) and
renders them as a versioned ``repro-metrics-history`` document — the
payload of ``GET /metrics/history`` and the input of ``repro obs top``.

Everything derived from the ring is **counter-reset aware**: a process
restart (the supervisor's bread and butter) makes a later snapshot's
totals *smaller* than an earlier one's, and a naive subtraction would
report negative traffic.  :func:`counter_delta` and
:func:`histogram_delta` clamp per-series negative deltas to zero, so a
rate over a restart reads as "no observed events" instead of nonsense.

:func:`histogram_quantile` estimates quantiles from cumulative bucket
counts with linear interpolation inside the bucket — the standard
fixed-bucket estimator (identical in spirit to PromQL's
``histogram_quantile``), which is exact at bucket bounds and at worst
one bucket wide in error between them.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Iterable, Mapping

from repro._validation import header_problems, is_a
from repro.obs.metrics import validate_snapshot

__all__ = ["SnapshotRing", "counter_total", "counter_delta",
           "histogram_delta", "histogram_quantile", "parse_history",
           "validate_history", "HISTORY_FORMAT", "HISTORY_VERSION"]

#: ``format`` marker of the history document.
HISTORY_FORMAT = "repro-metrics-history"
#: Schema version of the history document.
HISTORY_VERSION = 1


class SnapshotRing:
    """A bounded ring of timestamped registry snapshots.

    ``append`` is O(1) and drops the oldest sample past *capacity*;
    ``to_doc`` renders the whole ring as the self-describing
    ``repro-metrics-history`` document.  *clock* is injectable (unix
    seconds) so tests pin timestamps.
    """

    def __init__(self, capacity: int = 360, *,
                 clock: Callable[[], float] = time.time):
        if not is_a(capacity, int) or capacity < 1:
            raise ValueError(f"capacity must be a positive int, "
                             f"got {capacity!r}")
        self.capacity = capacity
        self.clock = clock
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)

    def __len__(self) -> int:
        """Samples currently retained."""
        return len(self._ring)

    def append(self, snapshot: Mapping[str, Any],
               t_unix: float | None = None) -> None:
        """Record one snapshot at *t_unix* (defaults to ``clock()``)."""
        self._ring.append({
            "t_unix": round(self.clock() if t_unix is None else t_unix, 6),
            "snapshot": dict(snapshot),
        })

    def samples(self) -> list[dict[str, Any]]:
        """Every retained ``{"t_unix", "snapshot"}`` sample, oldest first."""
        return list(self._ring)

    def to_doc(self, *, interval_s: float | None = None) -> dict[str, Any]:
        """The versioned history document (``GET /metrics/history``)."""
        doc: dict[str, Any] = {"format": HISTORY_FORMAT,
                               "version": HISTORY_VERSION,
                               "capacity": self.capacity,
                               "samples": self.samples()}
        if interval_s is not None:
            doc["interval_s"] = interval_s
        return doc


def parse_history(doc: Any) -> list[dict[str, Any]]:
    """The samples of a history document, oldest first; raises on any
    document that does not declare the ``repro-metrics-history`` format."""
    if not isinstance(doc, dict) or doc.get("format") != HISTORY_FORMAT:
        raise ValueError("not a repro-metrics-history document")
    if doc.get("version") != HISTORY_VERSION:
        raise ValueError(
            f"unsupported history version {doc.get('version')!r}")
    samples = doc.get("samples")
    if not isinstance(samples, list):
        raise ValueError("history document carries no 'samples' list")
    return samples


def validate_history(doc: object) -> list[str]:
    """Every way *doc* breaks the :meth:`SnapshotRing.to_doc` schema.

    Empty when valid.  The header, a positive integer ``capacity`` the
    ``samples`` do not exceed, an optional positive ``interval_s``, and
    samples whose numeric ``t_unix`` never goes backwards and whose
    ``snapshot`` passes :func:`~repro.obs.metrics.validate_snapshot`.
    """
    if not isinstance(doc, dict):
        return [f"history must be a JSON object, got {type(doc).__name__}"]
    problems = header_problems(doc, HISTORY_FORMAT, HISTORY_VERSION)
    capacity = doc.get("capacity")
    if not is_a(capacity, int) or capacity < 1:
        problems.append(f"'capacity' must be a positive integer, "
                        f"got {capacity!r}")
    if "interval_s" in doc and (not is_a(doc["interval_s"], (int, float))
                                or doc["interval_s"] <= 0):
        problems.append(f"'interval_s' must be positive, "
                        f"got {doc['interval_s']!r}")
    samples = doc.get("samples")
    if not isinstance(samples, list):
        return problems + ["missing 'samples' list"]
    if is_a(capacity, int) and len(samples) > max(capacity, 0):
        problems.append(f"{len(samples)} samples exceed capacity {capacity}")
    last_t = None
    for i, sample in enumerate(samples):
        where = f"samples[{i}]"
        if not isinstance(sample, dict):
            problems.append(f"{where}: must be an object")
            continue
        t = sample.get("t_unix")
        if not is_a(t, (int, float)):
            problems.append(f"{where}: missing numeric 't_unix'")
        else:
            if last_t is not None and t < last_t:
                problems.append(f"{where}: t_unix went backwards "
                                f"({t} < {last_t})")
            last_t = t
        problems.extend(f"{where}.snapshot: {p}"
                        for p in validate_snapshot(sample.get("snapshot")))
    return problems


def _series_map(snapshot: Mapping[str, Any], section: str,
                metric: str) -> dict[tuple[tuple[str, str], ...],
                                     dict[str, Any]]:
    """``{label-key: series-entry}`` of one metric in one snapshot."""
    doc = snapshot.get(section, {}).get(metric)
    if doc is None:
        return {}
    out = {}
    for entry in doc.get("series", ()):
        key = tuple(sorted((str(k), str(v))
                           for k, v in entry.get("labels", {}).items()))
        out[key] = entry
    return out


def counter_total(snapshot: Mapping[str, Any], metric: str, *,
                  where: Mapping[str, str] | None = None) -> float:
    """Sum of a counter's series values, optionally label-filtered.

    *where* keeps only series whose labels include every given pair
    (e.g. ``where={"result": "hit"}``).
    """
    total = 0.0
    for key, entry in _series_map(snapshot, "counters", metric).items():
        labels = dict(key)
        if where and any(labels.get(k) != v for k, v in where.items()):
            continue
        total += float(entry.get("value", 0.0))
    return total


def counter_delta(older: Mapping[str, Any], newer: Mapping[str, Any],
                  metric: str, *,
                  where: Mapping[str, str] | None = None) -> float:
    """Per-series counter increase between two snapshots, reset-clamped.

    Each series' negative delta (a counter that went *down* — the
    process restarted) is clamped to zero **before** summing, so one
    restarted series cannot eat the others' real traffic.
    """
    old = _series_map(older, "counters", metric)
    new = _series_map(newer, "counters", metric)
    delta = 0.0
    for key, entry in new.items():
        labels = dict(key)
        if where and any(labels.get(k) != v for k, v in where.items()):
            continue
        previous = old.get(key)
        before = float(previous.get("value", 0.0)) if previous else 0.0
        delta += max(0.0, float(entry.get("value", 0.0)) - before)
    return delta


def histogram_delta(older: Mapping[str, Any], newer: Mapping[str, Any],
                    metric: str) -> tuple[list[float], list[int], int, float]:
    """``(bounds, bucket_deltas, count_delta, sum_delta)`` between two
    snapshots, summed over every series and reset-clamped per series.

    A series whose total count decreased is treated as freshly started:
    its contribution is the newer snapshot's absolute counts (the old
    ones died with the old process).  Returns ``([], [], 0, 0.0)`` when
    the newer snapshot does not carry the metric.
    """
    doc = newer.get("histograms", {}).get(metric)
    if doc is None:
        return [], [], 0, 0.0
    bounds = [float(b) for b in doc.get("buckets", ())]
    deltas = [0] * (len(bounds) + 1)
    count_delta = 0
    sum_delta = 0.0
    old = _series_map(older, "histograms", metric)
    for key, entry in _series_map(newer, "histograms", metric).items():
        counts = list(entry.get("counts", ()))
        previous = old.get(key)
        if previous is not None \
                and int(previous.get("count", 0)) <= int(entry.get("count", 0)) \
                and len(previous.get("counts", ())) == len(counts):
            counts = [max(0, c - int(p)) for c, p
                      in zip(counts, previous["counts"])]
            count_delta += int(entry.get("count", 0)) \
                - int(previous.get("count", 0))
            sum_delta += max(0.0, float(entry.get("sum", 0.0))
                             - float(previous.get("sum", 0.0)))
        else:
            count_delta += int(entry.get("count", 0))
            sum_delta += float(entry.get("sum", 0.0))
        for i, c in enumerate(counts):
            if i < len(deltas):
                deltas[i] += c
    return bounds, deltas, count_delta, sum_delta


def histogram_quantile(bounds: Iterable[float], bucket_counts: Iterable[int],
                       q: float) -> float | None:
    """Estimate the *q* quantile from per-bucket (non-cumulative) counts.

    Linear interpolation inside the winning bucket, the first bucket
    interpolating from zero and the +Inf bucket reporting its lower
    bound (the largest finite information available).  Returns ``None``
    when there are no observations.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    bounds = list(bounds)
    counts = list(bucket_counts)
    total = sum(counts)
    if total <= 0:
        return None
    rank = q * total
    cumulative = 0
    for i, count in enumerate(counts):
        cumulative += count
        if cumulative >= rank and count > 0:
            if i >= len(bounds):  # the +Inf bucket
                return bounds[-1] if bounds else None
            lo = bounds[i - 1] if i > 0 else 0.0
            hi = bounds[i]
            fraction = (rank - (cumulative - count)) / count
            return lo + (hi - lo) * min(1.0, max(0.0, fraction))
    return bounds[-1] if bounds else None
