"""Validate ``repro sweep`` output against the documented row schema.

Usage::

    python tools/validate_sweep.py results.jsonl [...]

Every line must be a result row that passes
:func:`repro.analysis.sweeps.validate_row` (docs/sweeps.md).  The
end-to-end benchmark loads this file and calls :func:`validate` by name.

Exit codes: 0 valid, 1 invalid (problems on stderr), 2 unreadable input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

try:
    from repro.analysis import sweeps
except ImportError:  # run from the checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.analysis import sweeps

validate = sweeps.validate_row


def main(argv: list[str]) -> int:
    """CLI entry point: validate each path argument; 0 iff all valid."""
    if not argv:
        print("usage: validate_sweep.py RESULTS.jsonl [...]", file=sys.stderr)
        return 2
    code = 0
    for arg in argv:
        try:
            text = Path(arg).read_text()
        except OSError as exc:
            print(f"{arg}: unreadable: {exc}", file=sys.stderr)
            return 2
        problems = sweeps.validate_rows(text)
        for problem in problems:
            print(f"{arg}: {problem}", file=sys.stderr)
            code = 1
        if not problems:
            rows = [json.loads(line) for line in text.splitlines()]
            errors = sum(1 for row in rows if "error" in row)
            print(f"{arg}: valid ({len(rows)} rows, {errors} error rows)")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
