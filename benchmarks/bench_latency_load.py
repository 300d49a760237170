"""E17 — latency vs offered load, pinned by theory at both ends.

The latency a duty-cycled link imposes is not one number: it is the
zero-load access delay (analytic: the uniform-phase mean wait to the next
guaranteed slot) rising to saturation (analytic: the link serves exactly
its sigma-slot count per frame).  The measured curve must hit both
anchors; between them is the queueing regime the paper's "light traffic"
positioning lives in.
"""

from repro.analysis.experiments import latency_load_curve


def test_latency_load_curve(benchmark, report):
    table, info = benchmark.pedantic(
        lambda: latency_load_curve(slots=60_000), rounds=1, iterations=1)
    rows = table.rows
    # Zero-load anchor: lowest rate's mean latency near the analytic wait.
    lightest = rows[0]
    analytic = float(info["zero_load_latency"])
    assert abs(lightest["mean_latency"] - analytic) < 1.5, \
        f"zero-load latency {lightest['mean_latency']} vs analytic {analytic}"
    # Saturation anchor: heaviest rate delivers the full service capacity.
    heaviest = rows[-1]
    assert abs(heaviest["deliveries_per_frame"]
               - info["service_per_frame"]) < 0.05
    # Hockey stick: latency grows with load (monotone within the sampling
    # noise of the lightest rates) and explodes past saturation.
    latencies = [r["mean_latency"] for r in rows]
    for a, b in zip(latencies, latencies[1:]):
        assert b >= a - 1.0
    assert latencies[-1] > 10 * analytic
    report(table, "latency_load")
