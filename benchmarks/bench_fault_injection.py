"""F-faults — behaviour and cost of deterministic fault injection.

Two contracts ride on this sweep:

* **graceful degradation** — as injected node-crash and link-loss rates
  climb, a topology-transparent schedule loses throughput *smoothly*
  (section 6's robustness story: the schedule itself never has to be
  recomputed, dead neighbours simply stop being heard);
* **near-zero overhead when off** — the fault-tolerant runtime
  (:mod:`repro.service.runtime`) replaces the old ``pool.map`` fan-out
  of sweep shards, and a healthy batch must not pay meaningfully for the
  machinery (target < 5% on the inline path, read as the median of
  interleaved old/new pairs with its quartiles; asserted loosely here
  because CI boxes are noisy).
"""

import statistics
import time

from repro.analysis.sweeps import ShardTask, SweepSpec, _evaluate_shard
from repro.analysis.tables import Table
from repro.core.construction import construct
from repro.core.nonsleeping import polynomial_schedule
from repro.faults import FaultPlan
from repro.service.runtime import RuntimeConfig, execute_tasks
from repro.simulation.engine import Simulator
from repro.simulation.topology import grid
from repro.simulation.traffic import SaturatedTraffic

#: (node_crash_rate, node_recover_rate, link_loss) — escalating adversity.
FAULT_LEVELS = [
    (0.0, 0.0, 0.0),
    (0.0, 0.0, 0.1),
    (0.005, 0.1, 0.1),
    (0.01, 0.1, 0.3),
    (0.02, 0.05, 0.5),
]


def _run_level(topo, sched, crash, recover, loss, frames=2):
    plan = FaultPlan(seed=9, node_crash_rate=crash, node_recover_rate=recover,
                     link_loss=loss)
    sim = Simulator(topo, sched, SaturatedTraffic(topo),
                    faults=plan if plan.simulation_active else None)
    start = time.perf_counter()
    metrics = sim.run(frames=frames)
    elapsed = time.perf_counter() - start
    return metrics, elapsed


def test_simulation_degrades_gracefully(benchmark, report):
    topo = grid(4, 4)
    sched = construct(polynomial_schedule(16, 4), 4, 3, 6)

    table = Table("crash", "recover", "loss", "successes", "link_losses",
                  "down_frac", "slots_per_sec",
                  title="Saturated grid(4,4) under escalating injected faults")
    rows = []
    for crash, recover, loss in FAULT_LEVELS:
        metrics, elapsed = _run_level(topo, sched, crash, recover, loss)
        successes = sum(metrics.successes.values())
        rows.append((crash, loss, successes))
        table.row(crash=crash, recover=recover, loss=loss,
                  successes=successes, link_losses=metrics.link_losses,
                  down_frac=round(metrics.node_down_fraction(topo.n), 4),
                  slots_per_sec=int(metrics.slots / elapsed))
    report(table, "fault_injection_simulation")

    # Time the heaviest level under pytest-benchmark for trend tracking.
    worst = FAULT_LEVELS[-1]
    benchmark.pedantic(lambda: _run_level(topo, sched, *worst),
                       rounds=3, iterations=1)

    # Graceful degradation: faults cost throughput monotonically-ish but
    # never zero it out below total loss, and the clean level is lossless.
    clean = rows[0][2]
    assert all(successes < clean for _, _, successes in rows[1:])
    assert all(successes > 0 for _, _, successes in rows)
    assert _run_level(topo, sched, 0, 0, 0)[0].link_losses == 0


#: Interleaved old/new rounds of the overhead check.  Best-of-5 blocks of
#: each path read from -3% to +48% for identical code on a 2-core host;
#: paired rounds see the same host drift on both sides.
PAIRS = 51


def test_runtime_overhead_when_no_faults_fire(benchmark, report):
    spec = SweepSpec(families=("tdma", "polynomial"), ns=(12,), ds=(2,),
                     seeds=tuple(range(12)), frames=2)
    tasks = [ShardTask(spec, (point,)) for point in spec.expand()]

    def old_path():
        # The pre-runtime fan-out: evaluate in submission order, no
        # statuses, no retries, no checkpoints (inline variant).
        return {t.key(): _evaluate_shard(t) for t in tasks}

    def new_path():
        return execute_tasks(tasks, config=RuntimeConfig(jobs=1),
                             evaluate=_evaluate_shard).plans

    # Identical results, richer semantics; the first calls also pay the
    # simulator's lazy imports outside the timed rounds.
    assert new_path() == old_path()
    old_s, new_s, overheads = [], [], []
    for pair in range(PAIRS):
        # Alternate which path leads, so neither always runs warm.
        if pair % 2:
            new, old = _timed(new_path), _timed(old_path)
        else:
            old, new = _timed(old_path), _timed(new_path)
        old_s.append(old)
        new_s.append(new)
        overheads.append(new / old - 1.0)
    q1, overhead, q3 = statistics.quantiles(overheads, n=4)

    table = Table("path", "median_seconds", "overhead_median", "overhead_q1",
                  "overhead_q3",
                  title=f"Healthy-batch runtime overhead ({len(tasks)} sweep "
                        f"shards, inline, {PAIRS} interleaved pairs)")
    table.row(path="pool.map (old)",
              median_seconds=round(statistics.median(old_s), 4),
              overhead_median="-", overhead_q1="-", overhead_q3="-")
    table.row(path="runtime (new)",
              median_seconds=round(statistics.median(new_s), 4),
              overhead_median=f"{overhead:+.1%}", overhead_q1=f"{q1:+.1%}",
              overhead_q3=f"{q3:+.1%}")
    report(table, "fault_injection_runtime_overhead")

    benchmark.pedantic(new_path, rounds=3, iterations=1)
    # Target is < 5%; assert loosely so a noisy shared CI box cannot
    # flake the suite while still catching a genuine regression.
    assert overhead < 0.5


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
