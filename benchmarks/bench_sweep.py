"""The sharded sweep engine against a serial seed sweep.

Same grid, two runners: a serial loop over the grid driving the scalar
slot-step simulator (the pre-engine idiom), and
:class:`repro.analysis.SweepRunner` at ``--jobs 8`` riding the vectorized
saturated-mode kernel.  The engine must be at least 4x faster wall-clock
and — the determinism contract — its merged JSONL must be byte-identical
between ``jobs=1`` and ``jobs=8``.
"""

from __future__ import annotations

from time import perf_counter

from repro.analysis import Table, SweepRunner, SweepSpec
from repro.analysis.sweeps import (
    SweepPoint,
    _build_schedule,
    _build_topology,
)
from repro.service.runtime import RuntimeConfig
from repro.simulation.engine import Simulator
from repro.simulation.traffic import SaturatedTraffic

SPEC = SweepSpec(families=("tdma",), ns=(60, 80, 100), ds=(4,),
                 traffics=("saturated",), seeds=(0, 1, 2), frames=16)
MIN_SPEEDUP = 4.0


def _serial_point(n: int, seed: int) -> dict:
    """One grid point the way the seed repo ran it: scalar slot loop."""
    point = SweepPoint("tdma", n, SPEC.ds[0], "saturated", seed)
    topo = _build_topology(SPEC, point)
    sched = _build_schedule(SPEC, point)
    sim = Simulator(topo, sched, SaturatedTraffic(topo))
    m = sim.run_slots(SPEC.frames * sched.frame_length)
    return {"successes": sum(m.successes.values())}


def test_sweep_engine_speedup(report, headline):
    started = perf_counter()
    serial = [{"n": n, "seed": seed, **_serial_point(n, seed)}
              for n in SPEC.ns for seed in SPEC.seeds]
    serial_s = perf_counter() - started

    started = perf_counter()
    fast = SweepRunner(SPEC, shard_size=1,
                       config=RuntimeConfig(jobs=8)).run()
    engine_s = perf_counter() - started
    speedup = serial_s / engine_s

    # Same physics: per-point success totals agree with the scalar loop.
    by_point = {(r["point"]["n"], r["point"]["seed"]):
                r["metrics"]["successes"] for r in fast.rows}
    for record in serial:
        assert by_point[(record["n"], record["seed"])] \
            == record["successes"]

    # Determinism: worker count cannot change a single byte.
    single = SweepRunner(SPEC, shard_size=1).run()
    assert fast.to_jsonl() == single.to_jsonl()
    assert fast.complete

    assert speedup >= MIN_SPEEDUP, (
        f"sweep engine only {speedup:.1f}x faster than the serial seed "
        f"sweep ({engine_s:.3f}s vs {serial_s:.3f}s); need {MIN_SPEEDUP}x")
    headline("sweep_speedup_x", speedup)

    table = Table("runner", "points", "seconds", "speedup",
                  title="Sweep engine vs serial seed sweep (same grid)")
    table.row(runner="serial-scalar", points=len(serial),
              seconds=round(serial_s, 4), speedup=1.0)
    table.row(runner="engine-jobs8", points=len(fast.rows),
              seconds=round(engine_s, 4), speedup=round(speedup, 2))
    report(table, "sweep_engine")
