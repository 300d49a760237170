"""Benchmark trajectory: append-only history and the regression gate.

``benchmarks/conftest.py`` leaves one ``repro-bench-summary`` JSON
sidecar per benchmark module under ``benchmarks/results/`` — and
overwrites it on every run, so the *trajectory* the numbers describe
never existed on disk.  This module gives it a home:

* :func:`append_history` wraps each sidecar into one
  ``repro-bench-history`` v1 record — keyed by bench name + git sha,
  stamped with a unix timestamp, carrying the sidecar's result rows
  (each row keyed by test name + params) — and appends it to
  ``benchmarks/results/history.jsonl``.  ``tools/bench_history.py`` is
  the CLI wrapper CI runs after every bench job.
* :func:`diff` compares two sets of results headline-by-headline and
  reports regressions beyond a per-metric noise threshold; ``repro obs
  bench-diff --baseline <file>`` wraps it and exits 1 on regression —
  the perf gate CI runs on the paper's hot paths.
* :func:`validate_records` checks history records against the record
  schema; :func:`parse_history_lines` tells a history file from other
  documents (``tools/validate_metrics.py`` routes on it).

**Direction** is inferred from the headline metric's name
(:func:`lower_is_better`): time-flavoured suffixes (``_s``, ``_ms``,
``_us``, ``_pct``) regress *upward*, rate-flavoured ones (``_per_s``,
``_rate``, ``_speedup``, ``_x``) regress *downward*.  A metric the
heuristic cannot classify is compared as lower-is-better (every
unclassified headline in this repo is a duration) — name new headline
metrics with one of these suffixes.

**Noise thresholds** are multiplicative: with ``threshold=1.5`` a
lower-is-better metric regresses when ``current > baseline * 1.5``.
Benchmarks on shared CI runners are noisy; the default is deliberately
loose and per-metric overrides (``--threshold-for metric=ratio``)
tighten the stable ones.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro._validation import header_problems, is_a

__all__ = ["HISTORY_FORMAT", "HISTORY_VERSION", "SUMMARY_FORMAT",
           "result_key", "lower_is_better", "load_sidecars",
           "history_record", "append_history", "read_history",
           "parse_history_lines", "validate_records", "latest_by_bench",
           "Comparison", "DiffReport", "diff", "DEFAULT_THRESHOLD"]

#: ``format`` marker of one history.jsonl record.
HISTORY_FORMAT = "repro-bench-history"
#: Schema version of the history record.
HISTORY_VERSION = 1
#: The per-module sidecar format ``benchmarks/conftest.py`` writes.
SUMMARY_FORMAT = "repro-bench-summary"

#: Default multiplicative noise threshold (50% slack — CI runners are
#: shared and noisy; tighten per metric where the signal allows).
DEFAULT_THRESHOLD = 1.5

#: Headline-name suffixes meaning "bigger is worse" (durations, tails).
_LOWER_BETTER_SUFFIXES = ("_s", "_ms", "_us", "_ns", "_pct", "_seconds")
#: Headline-name suffixes meaning "bigger is better" (rates, speedups).
_HIGHER_BETTER_SUFFIXES = ("_per_s", "_rate", "_speedup", "_x", "_ratio",
                           "_ops")


def lower_is_better(metric: str) -> bool:
    """Whether *metric* regresses upward (durations) or downward (rates).

    Higher-better suffixes are checked first (``plans_per_s`` ends in
    ``_s`` too); anything unclassified is treated as lower-is-better.
    """
    if metric.endswith(_HIGHER_BETTER_SUFFIXES):
        return False
    if metric.endswith(_LOWER_BETTER_SUFFIXES):
        return True
    return True


def result_key(row: Mapping[str, Any]) -> str:
    """Stable identity of one result row: test name + sorted params.

    The sidecar rows carry it precomputed as ``key`` (see
    ``benchmarks/conftest.py``); this recomputes it for rows from older
    sidecars.
    """
    existing = row.get("key")
    if isinstance(existing, str) and existing:
        return existing
    params = row.get("params") or {}
    if not params:
        return str(row.get("name", "?"))
    rendered = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{row.get('name', '?')}[{rendered}]"


def load_sidecars(results_dir: str | Path) -> dict[str, dict[str, Any]]:
    """Every ``repro-bench-summary`` sidecar under *results_dir*, by bench.

    Non-JSON files and sidecars of other formats (``repro-serve-load``,
    chaos loads, CSV artefacts) are skipped silently — the directory is
    a mixed artefact dump by design.
    """
    sidecars: dict[str, dict[str, Any]] = {}
    root = Path(results_dir)
    if not root.is_dir():
        return sidecars
    for path in sorted(root.glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(doc, dict) or doc.get("format") != SUMMARY_FORMAT:
            continue
        bench = str(doc.get("benchmark") or path.stem)
        sidecars[bench] = doc
    return sidecars


def history_record(summary: Mapping[str, Any], *, git_sha: str,
                   recorded_unix: float | None = None) -> dict[str, Any]:
    """One ``repro-bench-history`` record wrapping one sidecar."""
    return {
        "format": HISTORY_FORMAT,
        "version": HISTORY_VERSION,
        "bench": str(summary.get("benchmark", "?")),
        "git_sha": git_sha,
        "recorded_unix": round(time.time() if recorded_unix is None
                               else recorded_unix, 3),
        "results": [dict(row, key=result_key(row))
                    for row in summary.get("results", ())],
    }


def append_history(results_dir: str | Path, out_path: str | Path, *,
                   git_sha: str,
                   recorded_unix: float | None = None) -> int:
    """Append one history record per sidecar to *out_path* (JSONL).

    Returns the number of records appended.  Append-only by design: the
    trajectory is the point, and dedup belongs to readers
    (:func:`latest_by_bench` keeps the newest record per bench).
    """
    records = [history_record(summary, git_sha=git_sha,
                              recorded_unix=recorded_unix)
               for _, summary in sorted(load_sidecars(results_dir).items())]
    if records:
        with open(out_path, "a") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def read_history(path: str | Path) -> list[dict[str, Any]]:
    """Every valid history record in a JSONL file, in file order.

    Raises ``ValueError`` naming the line for malformed JSON or a
    record of the wrong format/version (a corrupt gate input should
    fail loudly, not silently pass the gate).
    """
    records = []
    for lineno, doc in _history_lines(Path(path).read_text(), path):
        if not isinstance(doc, dict) or doc.get("format") != HISTORY_FORMAT:
            raise ValueError(f"{path}:{lineno}: not a {HISTORY_FORMAT} "
                             f"record")
        if doc.get("version") != HISTORY_VERSION:
            raise ValueError(f"{path}:{lineno}: unsupported version "
                             f"{doc.get('version')!r}")
        records.append(doc)
    return records


def _history_lines(text: str, source: str | Path
                   ) -> Iterator[tuple[int, Any]]:
    """``(line number, parsed JSON)`` per non-blank line of *text*;
    raises ``ValueError`` naming *source* and the line it cannot parse."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{source}:{lineno}: unparseable: {exc}") \
                from exc
        yield lineno, doc


def parse_history_lines(text: str, source: str | Path) -> list[Any] | None:
    """The parsed lines of history JSONL *text*, for :func:`validate_records`.

    None when the first non-blank line is not a history record on its
    own: *text* is some other document.  A later line that does not
    parse raises ``ValueError`` as :func:`read_history` does.
    """
    lines = _history_lines(text, source)
    try:
        _, first = next(lines, (0, None))
    except ValueError:
        return None
    if not isinstance(first, dict) or first.get("format") != HISTORY_FORMAT:
        return None
    return [first, *(doc for _, doc in lines)]


def validate_records(records: object) -> list[str]:
    """Every way a list of history records breaks the record schema.

    The schema is :func:`history_record`'s (empty list: valid).  Each
    record needs the header, string ``bench`` and ``git_sha``, a
    numeric ``recorded_unix`` and a ``results`` list of rows with a
    non-empty string ``key``, a string ``name`` and, when present, a
    ``headline`` with a string ``metric`` and a numeric ``value``.
    """
    if not isinstance(records, list):
        return [f"expected a list of records, got {type(records).__name__}"]
    problems: list[str] = []
    for i, record in enumerate(records):
        where = f"record[{i}]"
        if not isinstance(record, dict):
            problems.append(f"{where}: must be an object")
            continue
        problems.extend(f"{where}: {p}" for p in header_problems(
            record, HISTORY_FORMAT, HISTORY_VERSION))
        for name in ("bench", "git_sha"):
            if not isinstance(record.get(name), str):
                problems.append(f"{where}: missing string {name!r}")
        if not is_a(record.get("recorded_unix"), (int, float)):
            problems.append(f"{where}: missing numeric 'recorded_unix'")
        rows = record.get("results")
        if not isinstance(rows, list):
            problems.append(f"{where}: missing 'results' list")
            continue
        for j, row in enumerate(rows):
            spot = f"{where}.results[{j}]"
            if not isinstance(row, dict):
                problems.append(f"{spot}: must be an object")
                continue
            if not isinstance(row.get("key"), str) or not row["key"]:
                problems.append(f"{spot}: missing non-empty string 'key'")
            if not isinstance(row.get("name"), str):
                problems.append(f"{spot}: missing string 'name'")
            if row.get("headline") is not None and _headline(row) is None:
                problems.append(f"{spot}: 'headline' must carry a "
                                "string 'metric' and numeric 'value'")
    return problems


def latest_by_bench(records: Iterable[Mapping[str, Any]]
                    ) -> dict[str, dict[str, Any]]:
    """The newest record per bench (by ``recorded_unix``, ties to later
    file order)."""
    latest: dict[str, dict[str, Any]] = {}
    for record in records:
        bench = str(record.get("bench", "?"))
        kept = latest.get(bench)
        if kept is None or float(record.get("recorded_unix", 0)) \
                >= float(kept.get("recorded_unix", 0)):
            latest[bench] = dict(record)
    return latest


@dataclass(frozen=True)
class Comparison:
    """One headline metric compared between baseline and current."""

    bench: str
    key: str
    metric: str
    baseline: float
    current: float
    threshold: float
    lower_better: bool
    regressed: bool

    @property
    def ratio(self) -> float:
        """``current / baseline`` (inf when the baseline is zero)."""
        if self.baseline == 0:
            return float("inf") if self.current > 0 else 1.0
        return self.current / self.baseline

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (``obs bench-diff --json`` rows)."""
        return {"bench": self.bench, "key": self.key, "metric": self.metric,
                "baseline": self.baseline, "current": self.current,
                "ratio": round(self.ratio, 4) if self.ratio != float("inf")
                else None,
                "threshold": self.threshold,
                "lower_is_better": self.lower_better,
                "regressed": self.regressed}


@dataclass
class DiffReport:
    """The outcome of one baseline-vs-current comparison run."""

    compared: list[Comparison] = field(default_factory=list)
    missing_in_baseline: list[str] = field(default_factory=list)
    missing_in_current: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[Comparison]:
        """Every comparison that tripped its threshold."""
        return [c for c in self.compared if c.regressed]

    @property
    def ok(self) -> bool:
        """Gate verdict: no compared metric regressed."""
        return not self.regressions

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form of the whole report."""
        return {"ok": self.ok,
                "compared": [c.to_dict() for c in self.compared],
                "regressions": len(self.regressions),
                "missing_in_baseline": list(self.missing_in_baseline),
                "missing_in_current": list(self.missing_in_current)}


def _headline(row: Mapping[str, Any]) -> tuple[str, float] | None:
    """``(metric, value)`` of *row*'s headline: None when it carries
    none, or one without a string ``metric`` and a numeric ``value``."""
    headline = row.get("headline")
    if isinstance(headline, dict) and isinstance(headline.get("metric"), str) \
            and is_a(headline.get("value"), (int, float)):
        return headline["metric"], float(headline["value"])
    return None


def _headline_index(results: Iterable[Mapping[str, Any]]
                    ) -> dict[str, tuple[str, float]]:
    """``{row key: (metric, value)}`` for rows carrying a headline."""
    return {result_key(row): headline for row in results
            if (headline := _headline(row)) is not None}


def diff(current: Mapping[str, Mapping[str, Any]],
         baseline: Mapping[str, Mapping[str, Any]], *,
         threshold: float = DEFAULT_THRESHOLD,
         per_metric: Mapping[str, float] | None = None) -> DiffReport:
    """Compare headline metrics of *current* against *baseline*.

    Both arguments map bench name to a document carrying ``results``
    rows (a sidecar summary or a history record — the row shape is
    identical).  Only rows present on both sides with matching headline
    metric names are compared; side-only benches and rows are reported,
    never failed — a new benchmark must not break the gate that
    predates it.
    """
    if threshold < 1.0:
        raise ValueError(f"threshold must be >= 1.0, got {threshold}")
    per_metric = dict(per_metric or {})
    for name, ratio in per_metric.items():
        if ratio < 1.0:
            raise ValueError(f"threshold for {name!r} must be >= 1.0, "
                             f"got {ratio}")
    report = DiffReport()
    for bench in sorted(set(current) | set(baseline)):
        if bench not in baseline:
            report.missing_in_baseline.append(bench)
            continue
        if bench not in current:
            report.missing_in_current.append(bench)
            continue
        base_rows = _headline_index(baseline[bench].get("results", ()))
        for key, (metric, value) in sorted(
                _headline_index(current[bench].get("results", ())).items()):
            base = base_rows.get(key)
            if base is None or base[0] != metric:
                report.missing_in_baseline.append(f"{bench}:{key}")
                continue
            ratio = per_metric.get(metric, threshold)
            lower = lower_is_better(metric)
            if lower:
                regressed = value > base[1] * ratio
            else:
                regressed = value < base[1] / ratio
            report.compared.append(Comparison(
                bench=bench, key=key, metric=metric, baseline=base[1],
                current=value, threshold=ratio, lower_better=lower,
                regressed=regressed))
        for key in sorted(set(base_rows) - set(_headline_index(
                current[bench].get("results", ())))):
            report.missing_in_current.append(f"{bench}:{key}")
    return report
