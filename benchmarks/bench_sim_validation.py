"""E8 — model validation: the simulator reproduces the analysis exactly.

Saturated worst-case traffic on a random D-regular topology: every directed
link's simulated successes per frame must equal the analytic |T(x, y, S)|,
for both the non-sleeping source and the constructed duty-cycled schedule.

The second half micro-benches the saturated-mode hot path: the vectorized
kernel (``run``) must beat the scalar slot loop (``run_slots``) by at
least 3x on an n=100 frame sweep, and an unwatched run must leave the
observability layer completely untouched (no counters, no gauges, no
spans).
"""

from time import perf_counter

from repro.analysis import Table
from repro.analysis.experiments import sim_validation
from repro.core.nonsleeping import tdma_schedule
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.obs.tracing import Tracer, set_default_tracer
from repro.simulation.engine import Simulator
from repro.simulation.topology import worst_case_regular
from repro.simulation.traffic import SaturatedTraffic

MIN_KERNEL_SPEEDUP = 3.0


def test_sim_validation(benchmark, report):
    table = benchmark.pedantic(
        lambda: sim_validation(n=26, d=3, alpha_t=4, alpha_r=8, frames=3),
        rounds=3, iterations=1)
    assert all(r["exact_match"] for r in table.rows)
    duty = next(r for r in table.rows if r["schedule"] == "constructed")
    full = next(r for r in table.rows if r["schedule"] == "non-sleeping")
    assert duty["awake_fraction"] < full["awake_fraction"] == 1.0
    report(table, "sim_validation")


def test_vectorized_kernel_speedup(report, headline):
    n, d, frames = 100, 4, 5
    topo = worst_case_regular(n, d, seed=7)
    sched = tdma_schedule(n)

    # Swap in fresh observability defaults so the cleanliness assertion
    # below cannot be polluted by earlier benchmarks in the process.
    registry, tracer = MetricsRegistry(), Tracer()
    old_registry = set_default_registry(registry)
    old_tracer = set_default_tracer(tracer)
    try:
        scalar = Simulator(topo, sched, SaturatedTraffic(topo))
        started = perf_counter()
        ms = scalar.run_slots(frames * sched.frame_length)
        scalar_s = perf_counter() - started

        fast = Simulator(topo, sched, SaturatedTraffic(topo))
        assert fast._vector_eligible
        started = perf_counter()
        mf = fast.run(frames)
        kernel_s = perf_counter() - started

        # Unwatched runs never touch the default registry or tracer —
        # sweeps pay zero observability tax.
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}
        assert tracer.spans == []
    finally:
        set_default_registry(old_registry)
        set_default_tracer(old_tracer)

    assert dict(ms.successes) == dict(mf.successes)
    assert ms.slots == mf.slots == frames * sched.frame_length
    speedup = scalar_s / kernel_s
    assert speedup >= MIN_KERNEL_SPEEDUP, (
        f"vectorized kernel only {speedup:.1f}x faster than the scalar "
        f"loop ({kernel_s:.4f}s vs {scalar_s:.4f}s); "
        f"need {MIN_KERNEL_SPEEDUP}x")
    headline("kernel_speedup_x", speedup)

    table = Table("engine", "slots", "seconds", "speedup",
                  title=f"Saturated-mode kernel, n={n} D={d} "
                        f"frames={frames}")
    table.row(engine="scalar", slots=ms.slots,
              seconds=round(scalar_s, 4), speedup=1.0)
    table.row(engine="vectorized", slots=mf.slots,
              seconds=round(kernel_s, 4), speedup=round(speedup, 2))
    report(table, "sim_kernel")
