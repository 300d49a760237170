"""Counters, gauges and fixed-bucket histograms with JSON snapshots.

The measurement substrate of the whole stack.  Three instrument kinds,
all label-aware:

* :class:`Counter` — monotonically increasing totals (``inc``);
* :class:`Gauge` — last-write-wins level readings (``set``);
* :class:`Histogram` — fixed-bucket distributions (``observe``), the
  Prometheus cumulative-bucket model.

Instruments live in a :class:`MetricsRegistry`.  A process-global
default (:func:`default_registry`) serves code that does not thread a
registry through; anything that needs isolation — a store, a test, a
CLI invocation — injects its own instance.

Hot paths bind a series once (``counter.labels(result="hit")``) and pay
one attribute increment per event; no dict lookup, no string formatting.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain-JSON documents
with a declared ``format``/``version``.  Process-pool workers keep no
registry: a sweep worker returns its evaluation's duration and the
parent records it, so ``--jobs N`` and ``--jobs 1`` produce the same
totals.  Exports: :meth:`~MetricsRegistry.to_json` and
:meth:`~MetricsRegistry.to_prometheus` (the text exposition format).
:func:`validate_snapshot` checks a snapshot document against its schema.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from pathlib import Path
from typing import Any, Mapping

from repro._validation import header_problems, is_a
from repro.obs import context as _context

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "default_registry", "set_default_registry", "validate_snapshot",
           "SNAPSHOT_FORMAT", "SNAPSHOT_VERSION", "DEFAULT_BUCKETS"]

#: ``format`` marker of every snapshot document.
SNAPSHOT_FORMAT = "repro-metrics"
#: Schema version of the snapshot document (see docs/observability.md).
SNAPSHOT_VERSION = 1

#: Default histogram bucket upper bounds (seconds-flavoured, log-spaced).
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                   0.5, 1.0, 2.5, 5.0, 10.0, 30.0)


def _label_key(labels: Mapping[str, Any]) -> tuple[tuple[str, str], ...]:
    """Canonical hashable form of a label set (sorted, stringified)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class CounterSeries:
    """One labelled counter series; bind once, ``inc()`` on the hot path."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: tuple[tuple[str, str], ...]):
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the series total."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class GaugeSeries:
    """One labelled gauge series; ``set()`` overwrites the level."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: tuple[tuple[str, str], ...]):
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level (last write wins)."""
        self.value = float(value)


class HistogramSeries:
    """One labelled histogram series: per-bucket counts plus sum/count.

    With *exemplars* enabled, each bucket also remembers its **worst
    recent** observation — ``{"value": v, "trace_id": t}`` — captured
    when a trace context is in flight at ``observe`` time.  That links a
    latency bucket back to one concrete request that landed in it.
    """

    __slots__ = ("labels", "bounds", "counts", "sum", "count", "exemplars")

    def __init__(self, labels: tuple[tuple[str, str], ...],
                 bounds: tuple[float, ...], exemplars: bool = False):
        self.labels = labels
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0
        self.exemplars: list[dict[str, Any] | None] | None = \
            [None] * (len(bounds) + 1) if exemplars else None

    def observe(self, value: float, trace_id: str | None = None) -> None:
        """Record one observation into its bucket.

        *trace_id* overrides the ambient trace context for exemplar
        capture (callers that observe after their context has closed).
        """
        index = bisect_left(self.bounds, value)
        self.counts[index] += 1
        self.sum += value
        self.count += 1
        if self.exemplars is not None:
            if trace_id is None:
                trace_id = _context.current_trace_id()
            if trace_id is not None:
                previous = self.exemplars[index]
                if previous is None or value >= previous["value"]:
                    self.exemplars[index] = {"value": value,
                                             "trace_id": trace_id}


class _Metric:
    """Shared series bookkeeping for the three instrument kinds."""

    kind = "abstract"
    _series_cls: type = CounterSeries

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: dict[tuple[tuple[str, str], ...], Any] = {}

    def labels(self, **labels: Any):
        """The (created-on-first-use) series for this label combination."""
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series.setdefault(key, self._series_cls(key))
        return series

    def series(self) -> list[Any]:
        """Every series of this metric, in insertion order (a copy)."""
        return list(self._series.values())


class Counter(_Metric):
    """A monotonically increasing total, optionally labelled."""

    kind = "counter"
    _series_cls = CounterSeries

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Increment the series selected by *labels* (convenience path)."""
        self.labels(**labels).inc(amount)

    def value(self, **labels: Any) -> float:
        """Current total of the series selected by *labels* (0 if unseen)."""
        series = self._series.get(_label_key(labels))
        return series.value if series is not None else 0.0

    def total(self) -> float:
        """Sum over every series of this counter."""
        return sum(s.value for s in self.series())


class Gauge(_Metric):
    """A last-write-wins level reading, optionally labelled."""

    kind = "gauge"
    _series_cls = GaugeSeries

    def set(self, value: float, **labels: Any) -> None:
        """Set the series selected by *labels* to *value*."""
        self.labels(**labels).set(value)

    def value(self, **labels: Any) -> float:
        """Current level of the series selected by *labels* (0 if unseen)."""
        series = self._series.get(_label_key(labels))
        return series.value if series is not None else 0.0


class Histogram(_Metric):
    """A fixed-bucket distribution (cumulative Prometheus-style export)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                 exemplars: bool = False):
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("duplicate histogram bucket bounds")
        self.bounds = bounds
        self.exemplars = bool(exemplars)

    def labels(self, **labels: Any) -> HistogramSeries:
        """The (created-on-first-use) series for this label combination."""
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series.setdefault(key, HistogramSeries(
                key, self.bounds, exemplars=self.exemplars))
        return series

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation (convenience path; prefer bound series)."""
        self.labels(**labels).observe(value)


class MetricsRegistry:
    """A named collection of instruments with snapshot and export.

    Instrument accessors are idempotent: asking twice for the same name
    returns the same object, and asking for a name already registered as
    a different kind raises.  Registration is locked; series creation is
    one ``dict.setdefault``, so threads binding the same labels at once
    share one series.  Snapshots and exports walk copies, so worker
    threads may add metrics and series while a scrape runs.  The copies
    are of ``values()``, never ``items()``: copying items allocates a
    tuple per entry, an allocation can run the garbage collector, and a
    finalizer's Python code can switch threads (or register a metric
    itself) halfway through the copy.  Increments on bound series are
    plain attribute arithmetic.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # instrument accessors
    # ------------------------------------------------------------------
    def _register(self, cls: type, name: str, help: str,
                  **kwargs: Any) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help, **kwargs)
            elif not isinstance(metric, cls) or type(metric) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}")
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the :class:`Counter` called *name*."""
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the :class:`Gauge` called *name*."""
        return self._register(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] | None = None,
                  exemplars: bool = False) -> Histogram:
        """Get or create the :class:`Histogram` called *name*.

        *buckets* and *exemplars* apply on first registration only; a
        later caller with different options gets the original instrument
        (bucket layout is part of a histogram's identity — it cannot
        change mid-flight).  ``exemplars=True`` makes every series keep
        the worst recent ``(value, trace_id)`` per bucket.
        """
        return self._register(Histogram, name, help,
                              buckets=buckets if buckets is not None
                              else DEFAULT_BUCKETS, exemplars=exemplars)

    def get(self, name: str) -> _Metric | None:
        """The instrument called *name*, or None."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        """Every registered metric name, in registration order."""
        return list(self._metrics)

    def clear(self) -> None:
        """Drop every instrument and series (tests and re-runs)."""
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------
    # snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Plain-JSON document of every series (see docs/observability.md).

        The document is self-describing (``format``/``version``):
        ``--metrics-out`` writes it and :func:`validate_snapshot` checks
        it.
        """
        counters: dict[str, Any] = {}
        gauges: dict[str, Any] = {}
        histograms: dict[str, Any] = {}
        for metric in list(self._metrics.values()):
            name = metric.name
            if metric.kind == "counter":
                counters[name] = {
                    "help": metric.help,
                    "series": [{"labels": dict(s.labels), "value": s.value}
                               for s in metric.series()],
                }
            elif metric.kind == "gauge":
                gauges[name] = {
                    "help": metric.help,
                    "series": [{"labels": dict(s.labels), "value": s.value}
                               for s in metric.series()],
                }
            else:
                entries = []
                for s in metric.series():
                    entry: dict[str, Any] = {"labels": dict(s.labels),
                                             "counts": list(s.counts),
                                             "sum": s.sum, "count": s.count}
                    if s.exemplars is not None \
                            and any(e is not None for e in s.exemplars):
                        entry["exemplars"] = [dict(e) if e is not None
                                              else None
                                              for e in s.exemplars]
                    entries.append(entry)
                histograms[name] = {
                    "help": metric.help,
                    "buckets": list(metric.bounds),
                    "series": entries,
                }
        return {"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION,
                "counters": counters, "gauges": gauges,
                "histograms": histograms}

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_json(self, *, indent: int | None = 2) -> str:
        """The snapshot document rendered as a JSON string."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def write_json(self, path: str | Path) -> None:
        """Write the JSON snapshot to *path* (the ``--metrics-out`` file)."""
        Path(path).write_text(self.to_json() + "\n")

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (for scrape endpoints).

        Label values are escaped per the exposition format (backslash,
        double quote and newline), and HELP text escapes backslash and
        newline — arbitrary request-derived labels always scrape clean.
        An empty registry renders a comment-only exposition (valid to
        every scraper) rather than a zero-byte body.
        """

        def esc_label(value: str) -> str:
            return (value.replace("\\", r"\\").replace('"', r"\"")
                    .replace("\n", r"\n"))

        def esc_help(text: str) -> str:
            return text.replace("\\", r"\\").replace("\n", r"\n")

        def fmt_labels(labels, extra: str = "") -> str:
            parts = [f'{k}="{esc_label(v)}"' for k, v in labels]
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        lines: list[str] = []
        for metric in list(self._metrics.values()):
            name = metric.name
            if metric.help:
                lines.append(f"# HELP {name} {esc_help(metric.help)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if metric.kind in ("counter", "gauge"):
                for s in metric.series():
                    lines.append(f"{name}{fmt_labels(s.labels)} {s.value:g}")
            else:
                for s in metric.series():
                    cumulative = 0
                    for bound, count in zip(metric.bounds, s.counts):
                        cumulative += count
                        le = 'le="%g"' % bound
                        lines.append(f"{name}_bucket"
                                     f"{fmt_labels(s.labels, le)} {cumulative}")
                    inf = 'le="+Inf"'
                    lines.append(f"{name}_bucket"
                                 f"{fmt_labels(s.labels, inf)} {s.count}")
                    lines.append(f"{name}_sum{fmt_labels(s.labels)} {s.sum:g}")
                    lines.append(
                        f"{name}_count{fmt_labels(s.labels)} {s.count}")
        if not lines:
            return "# repro-metrics: no metrics registered\n"
        return "\n".join(lines) + "\n"


_default = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry instrumentation falls back to."""
    return _default


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install *registry* as the process-global default; returns the old one.

    The CLI installs a fresh registry per invocation so ``--metrics-out``
    reflects that run alone; long-lived embedders can do the same around
    request scopes.
    """
    global _default
    old, _default = _default, registry
    return old


def validate_snapshot(doc: object) -> list[str]:
    """Every way *doc* breaks the snapshot schema (empty list: valid).

    The contract of :meth:`MetricsRegistry.snapshot`: the header, the
    three metric sections, labels mapping strings to strings, a numeric
    ``value`` per counter or gauge series, and per histogram a numeric
    ``buckets`` list with series whose ``counts`` (and optional
    ``exemplars``: null, or a numeric ``value`` with a string or null
    ``trace_id``) hold one entry per bucket plus the +Inf bucket.
    """
    if not isinstance(doc, dict):
        return [f"snapshot must be a JSON object, got {type(doc).__name__}"]
    problems = header_problems(doc, SNAPSHOT_FORMAT, SNAPSHOT_VERSION)
    for kind in ("counters", "gauges", "histograms"):
        section = doc.get(kind)
        if not isinstance(section, dict):
            problems.append(f"missing '{kind}' object")
            continue
        for name, metric in section.items():
            if not isinstance(metric, dict):
                problems.append(f"{name}: must be an object")
                continue
            if not isinstance(metric.get("help"), str):
                problems.append(f"{name}: missing 'help' string")
            problems.extend(_series_problems(name, kind, metric))
    return problems


def _series_problems(name: str, kind: str, metric: dict) -> list[str]:
    """Problems of one metric's ``series`` list."""
    series = metric.get("series")
    if not isinstance(series, list):
        return [f"{name}: 'series' must be a list, got {type(series).__name__}"]
    problems: list[str] = []
    buckets = metric.get("buckets")
    if kind == "histograms" and (
            not isinstance(buckets, list)
            or not all(isinstance(b, (int, float)) for b in buckets)):
        problems.append(f"{name}: 'buckets' must be a numeric list")
        buckets = None
    for i, entry in enumerate(series):
        where = f"{name}.series[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be an object")
            continue
        labels = entry.get("labels")
        if not isinstance(labels, dict) or \
                not all(isinstance(k, str) and isinstance(v, str)
                        for k, v in labels.items()):
            problems.append(f"{where}: 'labels' must map strings to strings")
        if kind in ("counters", "gauges"):
            if not isinstance(entry.get("value"), (int, float)):
                problems.append(f"{where}: missing numeric 'value'")
            continue
        counts = entry.get("counts")
        if not isinstance(counts, list) or \
                not all(isinstance(c, int) for c in counts):
            problems.append(f"{where}: 'counts' must be an integer list")
        elif buckets is not None and len(counts) != len(buckets) + 1:
            problems.append(f"{where}: len(counts)={len(counts)} != "
                            f"len(buckets)+1={len(buckets) + 1}")
        if not isinstance(entry.get("count"), int):
            problems.append(f"{where}: missing integer 'count'")
        if not isinstance(entry.get("sum"), (int, float)):
            problems.append(f"{where}: missing numeric 'sum'")
        if "exemplars" in entry:
            problems.extend(_exemplar_problems(where, entry["exemplars"],
                                               buckets))
    return problems


def _exemplar_problems(where: str, exemplars: object,
                       buckets: list | None) -> list[str]:
    """Problems of one histogram series' ``exemplars`` list."""
    if not isinstance(exemplars, list):
        return [f"{where}: 'exemplars' must be a list"]
    problems: list[str] = []
    if buckets is not None and len(exemplars) != len(buckets) + 1:
        problems.append(f"{where}: len(exemplars)={len(exemplars)} != "
                        f"len(buckets)+1={len(buckets) + 1}")
    for j, ex in enumerate(exemplars):
        if ex is None:
            continue
        spot = f"{where}.exemplars[{j}]"
        if not isinstance(ex, dict):
            problems.append(f"{spot}: must be null or an object")
            continue
        if not is_a(ex.get("value"), (int, float)):
            problems.append(f"{spot}: missing numeric 'value'")
        if "trace_id" not in ex or not (
                ex["trace_id"] is None or isinstance(ex["trace_id"], str)):
            problems.append(f"{spot}: 'trace_id' must be a string or null")
    return problems
