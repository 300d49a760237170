"""Traffic generators."""

import numpy as np
import pytest

from repro.simulation.routing import sink_tree
from repro.simulation.topology import grid, ring
from repro.simulation.traffic import (
    PATTERNS,
    PeriodicSensingTraffic,
    PoissonTraffic,
    SaturatedTraffic,
    build,
)


class TestSaturated:
    def test_no_discrete_arrivals(self):
        tr = SaturatedTraffic(ring(5))
        assert tr.saturated
        assert tr.arrivals(0) == []
        assert tr.arrivals(100) == []


class TestPoisson:
    def test_destinations_are_neighbours(self):
        topo = ring(6)
        tr = PoissonTraffic(topo, rate=0.5, rng=np.random.default_rng(0))
        for slot in range(50):
            for src, dst in tr.arrivals(slot):
                assert dst in topo.neighbors(src)

    def test_rate_approximation(self):
        topo = grid(3, 3)
        rate = 0.2
        tr = PoissonTraffic(topo, rate=rate, rng=np.random.default_rng(1))
        total = sum(len(tr.arrivals(s)) for s in range(500))
        expected = rate * topo.n * 500
        assert 0.8 * expected < total < 1.2 * expected

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            PoissonTraffic(ring(4), rate=0.0, rng=np.random.default_rng(0))

    def test_not_saturated(self):
        assert not PoissonTraffic(ring(4), 0.1, np.random.default_rng(0)).saturated


class TestPeriodicSensing:
    def test_every_node_reports_once_per_period(self):
        topo = grid(3, 3)
        tr = PeriodicSensingTraffic(topo, sink=0, period=10)
        counts = {x: 0 for x in range(topo.n)}
        for slot in range(10):
            for src, dst in tr.arrivals(slot):
                assert dst == 0
                counts[src] += 1
        assert counts[0] == 0  # the sink does not report to itself
        assert all(counts[x] == 1 for x in range(1, topo.n))

    def test_staggered_phases(self):
        topo = grid(3, 3)
        tr = PeriodicSensingTraffic(topo, sink=0, period=4)
        # Node x fires when slot % period == x % period.
        for slot in range(4):
            srcs = {src for src, _ in tr.arrivals(slot)}
            for src in srcs:
                assert src % 4 == slot % 4

    def test_sink_validated(self):
        with pytest.raises(ValueError):
            PeriodicSensingTraffic(grid(2, 2), sink=4, period=5)

    def test_period_validated(self):
        with pytest.raises(ValueError):
            PeriodicSensingTraffic(grid(2, 2), sink=0, period=0)


class TestPatternTable:
    def test_each_name_builds_its_generator_and_routes(self):
        assert list(PATTERNS) == ["saturated", "poisson", "sensing"]
        topo = grid(3, 3)
        rng = np.random.default_rng(0)
        built = {name: build(name, topo, rng, rate=0.2, period=7)
                 for name in PATTERNS}
        want = {
            "saturated": (SaturatedTraffic(topo), None),
            "poisson": (PoissonTraffic(topo, 0.2, rng), None),
            "sensing": (PeriodicSensingTraffic(topo, sink=0, period=7),
                        sink_tree(topo, 0)),
        }
        for name, (traffic, hops) in built.items():
            assert type(traffic) is type(want[name][0]), name
            assert (traffic, hops) == want[name], name

    def test_an_unknown_pattern_lists_the_names(self):
        with pytest.raises(ValueError, match=r"unknown traffic 'warp'; "
                           r"expected one of \('saturated', 'poisson', "
                           r"'sensing'\)"):
            build("warp", grid(2, 2), np.random.default_rng(0), rate=0.1,
                  period=5)
