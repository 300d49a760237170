"""End-to-end benchmark of the request and sweep paths.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--workload W] [--seed S]
                                 [--trace [0|1]] [--smoke]
                                 [--results-dir DIR]
    python benchmarks/e2e/run.py --print-gate-args
    python benchmarks/e2e/run.py --repeat N [--results-dir DIR]

One run drives the real program from outside (``repro serve`` and the
``repro sweep`` CLI, see ``workloads.py``), checks its answers, prints
every metric of ``BENCHMARK.json`` with its unit and, as the last line of
standard output, one JSON object::

    {"correct": true, "attempted": 1234, "failed": 0,
     "metrics": {"p50_ms": {"value": 1.52, "unit": "ms"}, ...}}

Every run measures for ``BENCHMARK.json``'s ``run_seconds`` (1 s with
``--smoke``); ``--seconds`` is accepted with that value only.  The time
metrics are reported at a reference host speed, sampled by the probes of
``speed.py`` while the run measures; the measured values are printed as
``raw_*`` diagnostics.

An untraced run reports the end-to-end metrics and writes them as a
``repro-bench-summary`` sidecar ``<results-dir>/<workload>.json`` (one row
per metric, keyed ``<workload>/<metric>``), which ``repro obs bench-diff``
gates unchanged.  ``--trace 1`` reports the per-layer metrics instead,
from wrappers installed by ``layers.py``, and writes the spans and the
breakdown next to the sidecars.  A failed correctness check prints its
reason and exits 1.

One run is too noisy on a shared host to gate on, so the baseline and a
gate run are both made with ``--repeat N``: the sidecars then hold each
metric's median over N runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parser(config: dict) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in config["workloads"]]
    p.add_argument("--workload", choices=names, default=None,
                   help="one workload (default: all of them in turn)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the generated inputs")
    # The window is fixed: every run, the baseline's included, measures
    # run_seconds (1 s with --smoke).  The flag is accepted only so that
    # the standard command line ``--seconds <run_seconds>`` works.
    p.add_argument("--seconds", type=float,
                   choices=[float(config["run_seconds"])],
                   help="must equal BENCHMARK.json's run_seconds")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="1: report the per-layer metrics of a traced run")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own smoke test")
    p.add_argument("--results-dir", type=Path, default=HERE / "results",
                   help="where sidecars, spans and breakdowns go")
    p.add_argument("--print-gate-args", action="store_true",
                   help="print the repro obs bench-diff threshold flags "
                        "for BENCHMARK.json's bounds and exit")
    p.add_argument("--repeat", type=int, default=0, metavar="N",
                   help="run every workload N times (seeds 1..N) and write "
                        "the per-metric medians as the sidecars, plus one "
                        "traced run each")
    return p


def gate_args(config: dict) -> list[str]:
    """``--threshold-for metric=ratio`` flags: a metric regresses when it
    worsens by more than its bound."""
    return [arg for m in config["end_to_end"]
            for arg in ("--threshold-for", f"{m['name']}={1 + m['bound']:g}")]


def run_workload(config: dict, name: str, seed: int, seconds: float,
                 traced: bool, smoke: bool, results_dir: Path) -> dict:
    """One workload run; prints its report, returns the result line."""
    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = workloads.Bench(workdir, seconds,
                            workloads.SMOKE if smoke else workloads.FULL)
    try:
        bench.start_probes()
        result = workloads.WORKLOADS[name](bench, seed, traced)
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)

    declared = config["per_layer" if traced else "end_to_end"]
    values = result["metrics"]
    # A layer the workload never enters reads zero (no calls, no time).
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0))
                           if traced else float(values[m["name"]]),
                           "unit": m["unit"]} for m in declared}
    print(f"== {name} (seed {seed}, {seconds:g} s"
          f"{', traced' if traced else ''})")
    for metric, entry in metrics.items():
        print(f"  {metric:<44} {entry['value']:>14.4f} {entry['unit']}")
    for key, value in result.get("diagnostics", {}).items():
        print(f"  {'(' + key + ')':<44} {value!s:>14}")
    results_dir.mkdir(parents=True, exist_ok=True)
    if traced:
        _write_trace(name, result, results_dir)
    else:
        _write_sidecar(name, seed, seconds, metrics,
                       result.get("diagnostics", {}), results_dir)
    for problem in bench.problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  {bench.checks} correctness checks, {len(bench.problems)} "
          f"failed; {bench.attempted} operations, {bench.failed} failed")
    return {"correct": not bench.problems and bench.failed == 0
            and bench.checks > 0,
            "attempted": bench.attempted, "failed": bench.failed,
            "metrics": metrics}


def _write_sidecar(name: str, seed: int, seconds: float, metrics: dict,
                   diagnostics: dict, results_dir: Path) -> None:
    rows = [{"name": metric, "key": f"{name}/{metric}", "params": {},
             "unit": entry["unit"],
             "headline": {"metric": metric, "value": entry["value"]}}
            for metric, entry in metrics.items()]
    doc = {"benchmark": name, "format": "repro-bench-summary", "version": 1,
           "seed": seed, "seconds": seconds, "results": rows,
           "diagnostics": diagnostics}
    (results_dir / f"{name}.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_trace(name: str, result: dict, results_dir: Path) -> None:
    """The spans as JSONL and a per-layer table sorted by share."""
    bd, ops = result["breakdown"], result["ops"]
    with open(results_dir / f"{name}.spans.jsonl", "w") as fh:
        for span in result["spans"]:
            fh.write(json.dumps(span, sort_keys=True) + "\n")
    table = sorted(({"layer": layer,
                     "self_ms_per_op": e["self_s"] / ops * 1e3,
                     "calls_per_op": e["calls"] / ops,
                     "share_pct": e["self_s"] / bd["e2e_s"] * 100}
                    for layer, e in bd["layers"].items()),
                   key=lambda row: -row["share_pct"])
    print(f"  {'layer':<40} {'self ms/op':>11} {'calls/op':>9} "
          f"{'share %':>8}")
    for row in table:
        print(f"  {row['layer']:<40} {row['self_ms_per_op']:>11.4f} "
              f"{row['calls_per_op']:>9.2f} {row['share_pct']:>8.2f}")
    doc = {"benchmark": name, "format": "repro-e2e-breakdown", "version": 1,
           "operations": ops, "e2e_ms_per_op": bd["e2e_s"] / ops * 1e3,
           "layers": table,
           "metrics": {k: v for k, v in result["metrics"].items()
                       if isinstance(v, float) and math.isfinite(v)}}
    (results_dir / f"{name}.trace.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")


def repeat_runs(config: dict, runs: int, seconds: float,
                results_dir: Path) -> bool:
    """*runs* untraced runs of every workload (seeds 1..runs, the
    workloads interleaved so that a slow spell of the host touches them
    alike) under ``runs/<seed>/``; their per-metric medians as the
    sidecars in *results_dir*; one traced run each in ``trace/``."""
    names = [w["name"] for w in config["workloads"]]
    ok = True
    values: dict[str, dict[str, list[float]]] = {n: {} for n in names}
    for seed in range(1, runs + 1):
        for name in names:
            line = run_workload(config, name, seed, seconds, False, False,
                                results_dir / "runs" / str(seed))
            ok &= line["correct"]
            for metric, entry in line["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
    units = {m["name"]: m["unit"] for m in config["end_to_end"]}
    for name in names:
        medians = {m: {"value": statistics.median(v), "unit": units[m]}
                   for m, v in values[name].items()}
        _write_sidecar(name, 0, seconds, medians, {
            "runs": runs, "of": "median per metric",
            "max_over_min": {m: max(v) / min(v)
                             for m, v in values[name].items()}}, results_dir)
        ok &= run_workload(config, name, 1, seconds, True, False,
                           results_dir / "trace")["correct"]
    return ok


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit code."""
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    config = _config()
    args = _parser(config).parse_args(argv)
    if args.print_gate_args:
        print(" ".join(gate_args(config)))
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    # SIGTERM unwinds through the cleanup that stops the program's
    # processes, like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seconds = 1.0 if args.smoke else float(config["run_seconds"])
    if args.repeat:
        return 0 if repeat_runs(config, args.repeat, seconds,
                                args.results_dir) else 1
    names = [args.workload] if args.workload \
        else [w["name"] for w in config["workloads"]]
    lines = {name: run_workload(config, name, args.seed, seconds,
                                bool(args.trace), args.smoke,
                                args.results_dir) for name in names}
    if len(lines) == 1:
        line = lines[names[0]]
    else:
        line = {"correct": all(l["correct"] for l in lines.values()),
                "attempted": sum(l["attempted"] for l in lines.values()),
                "failed": sum(l["failed"] for l in lines.values()),
                "metrics": {f"{name}/{metric}": entry
                            for name, l in lines.items()
                            for metric, entry in l["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
