"""Sink trees and hop counts."""

import pytest

from repro.simulation.routing import hop_counts, sink_tree
from repro.simulation.topology import Topology, grid, ring


class TestSinkTree:
    def test_parents_point_toward_sink(self):
        topo = grid(3, 3)
        parent = sink_tree(topo, 0)
        assert 0 not in parent
        assert len(parent) == topo.n - 1
        for child, par in parent.items():
            assert par in topo.neighbors(child)

    def test_paths_terminate_at_sink(self):
        topo = grid(4, 4)
        parent = sink_tree(topo, 5)
        for node in range(topo.n):
            if node == 5:
                continue
            x, steps = node, 0
            while x != 5:
                x = parent[x]
                steps += 1
                assert steps <= topo.n

    def test_bfs_gives_shortest_hops(self):
        topo = ring(8)
        counts = hop_counts(topo, 0)
        assert counts[4] == 4  # antipodal on the 8-ring
        assert counts[1] == 1
        assert counts[7] == 1

    def test_deterministic_tie_break(self):
        topo = grid(3, 3)
        assert sink_tree(topo, 0) == sink_tree(topo, 0)

    def test_unreachable_nodes_absent(self):
        topo = Topology.from_edges(4, [(0, 1)])
        parent = sink_tree(topo, 0)
        assert set(parent) == {1}
        counts = hop_counts(topo, 0)
        assert set(counts) == {0, 1}

    def test_sink_validated(self):
        with pytest.raises(ValueError):
            sink_tree(grid(2, 2), 7)

    def test_hop_counts_consistent_with_parents(self):
        topo = grid(4, 3)
        parent = sink_tree(topo, 0)
        counts = hop_counts(topo, 0)
        for child, par in parent.items():
            assert counts[child] == counts[par] + 1
