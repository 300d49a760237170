"""Validate ``--trace-out`` span dumps against the documented schema.

Usage::

    python tools/validate_trace.py trace.jsonl [...]

Every line must be a span that passes
:func:`repro.obs.tracing.validate_span`; then the spans of all files
together must pass :func:`repro.obs.tracing.span_graph_problems`, so a
client dump and a server dump of the same trace validate as one graph.
A file :func:`repro.obs.profile.looks_like_collapsed` recognises (a
``--sample-profile`` sidecar caught by the same artefact glob) is
reported as skipped and never fails validation.

Exit codes: 0 valid, 1 invalid (problems on stderr), 2 unreadable input.
"""

from __future__ import annotations

import sys
from pathlib import Path

try:
    from repro._validation import jsonl_problems
    from repro.obs import profile, tracing
except ImportError:  # run from the checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro._validation import jsonl_problems
    from repro.obs import profile, tracing


def main(argv: list[str]) -> int:
    """CLI entry point: validate each path argument; 0 iff all valid."""
    if not argv:
        print("usage: validate_trace.py TRACE.jsonl [...]", file=sys.stderr)
        return 2
    texts: list[tuple[str, str]] = []
    for arg in argv:
        try:
            texts.append((arg, Path(arg).read_text()))
        except OSError as exc:
            print(f"{arg}: unreadable: {exc}", file=sys.stderr)
            return 2
    code = 0
    all_spans: list[dict] = []
    for arg, text in texts:
        if profile.looks_like_collapsed(text):
            print(f"{arg}: skipped (collapsed-stack profile, not a span "
                  "dump)")
            continue
        spans, problems = jsonl_problems(text, tracing.validate_span)
        for problem in problems:
            print(f"{arg}: {problem}", file=sys.stderr)
            code = 1
        all_spans.extend(spans)
    for problem in tracing.span_graph_problems(all_spans):
        print(f"(merged): {problem}", file=sys.stderr)
        code = 1
    if code == 0:
        traces = {s["trace_id"] for s in all_spans}
        pids = {s.get("pid") for s in all_spans}
        print(f"valid ({len(all_spans)} spans, {len(traces)} traces, "
              f"{len(pids)} processes)")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
