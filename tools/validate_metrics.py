"""Validate metrics snapshots, SLO reports and metrics or bench histories.

Usage::

    python tools/validate_metrics.py metrics.json [...]

Each file is routed on its ``format`` header to the check that lives
beside the format's writer (``_CHECKS`` below; docs/observability.md).
A bench history is JSONL, one record per line, and is recognised by
:func:`repro.obs.bench.parse_history_lines`; any other file is one JSON
document, checked as a snapshot unless its header names a report or a
metrics history.

Exit codes: 0 valid, 1 invalid (problems on stderr), 2 unreadable input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

try:
    from repro.obs import bench, metrics, slo, timeseries
except ImportError:  # run from the checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.obs import bench, metrics, slo, timeseries

#: ``format`` -> (its check, the summary line of a valid document).
_CHECKS = {
    bench.HISTORY_FORMAT: (
        bench.validate_records,
        lambda records: f"valid bench history ({len(records)} record(s))"),
    slo.SLO_REPORT_FORMAT: (
        slo.validate_report,
        lambda doc: f"valid slo report ({len(doc['objectives'])} "
                    f"objectives, "
                    f"{sum(not e.get('ok') for e in doc['objectives'])} "
                    f"burned)"),
    timeseries.HISTORY_FORMAT: (
        timeseries.validate_history,
        lambda doc: f"valid metrics history ({len(doc['samples'])} "
                    f"sample(s), capacity {doc['capacity']})"),
    metrics.SNAPSHOT_FORMAT: (
        metrics.validate_snapshot,
        lambda doc: "valid ({} counters, {} gauges, {} histograms; {} "
                    "counter series)".format(
                        len(doc["counters"]), len(doc["gauges"]),
                        len(doc["histograms"]),
                        sum(len(m.get("series", []))
                            for m in doc["counters"].values()))),
}


def main(argv: list[str]) -> int:
    """CLI entry point: validate each path argument; 0 iff all valid."""
    if not argv:
        print("usage: validate_metrics.py SNAPSHOT.json [...]",
              file=sys.stderr)
        return 2
    code = 0
    for arg in argv:
        try:
            text = Path(arg).read_text()
        except OSError as exc:
            print(f"{arg}: unreadable: {exc}", file=sys.stderr)
            return 2
        try:
            doc = bench.parse_history_lines(text, arg)
        except ValueError as exc:  # a later history line does not parse
            print(exc, file=sys.stderr)
            code = 1
            continue
        fmt = bench.HISTORY_FORMAT
        if doc is None:
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                print(f"{arg}: unreadable: {exc}", file=sys.stderr)
                return 2
            fmt = doc.get("format") if isinstance(doc, dict) else None
            if fmt not in (slo.SLO_REPORT_FORMAT, timeseries.HISTORY_FORMAT):
                fmt = metrics.SNAPSHOT_FORMAT
        check, summary = _CHECKS[fmt]
        problems = check(doc)
        for problem in problems:
            print(f"{arg}: {problem}", file=sys.stderr)
            code = 1
        if not problems:
            print(f"{arg}: {summary(doc)}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
