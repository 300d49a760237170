"""Topology wrapper and the N_n^D generators."""

import numpy as np
import pytest

from repro.simulation import topology as topology_mod
from repro.simulation.topology import (
    SHAPES,
    Topology,
    build,
    grid,
    random_capped,
    random_tree,
    ring,
    star,
    unit_disk,
    worst_case_regular,
)


class TestTopology:
    def test_from_edges_normalizes(self):
        t = Topology.from_edges(3, [(2, 0), (1, 2)])
        assert t.edges == frozenset({(0, 2), (1, 2)})
        assert t.neighbors(2) == {0, 1}

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Topology.from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Topology.from_edges(3, [(0, 3)])

    def test_unsorted_edge_rejected_in_raw_ctor(self):
        with pytest.raises(ValueError, match="sorted"):
            Topology(3, frozenset({(2, 1)}))

    def test_degree_and_max_degree(self):
        t = Topology.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert t.degree(0) == 3
        assert t.degree(1) == 1
        assert t.max_degree == 3

    def test_directed_links(self):
        t = Topology.from_edges(3, [(0, 1)])
        assert t.directed_links() == [(0, 1), (1, 0)]

    def test_in_class(self):
        t = Topology.from_edges(4, [(0, 1), (1, 2)])
        assert t.in_class(4, 2)
        assert t.in_class(10, 3)
        assert not t.in_class(10, 2) or t.max_degree <= 2
        t.assert_in_class(4, 2)

    def test_assert_in_class_raises(self):
        t = Topology.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(ValueError, match="not"):
            t.assert_in_class(4, 2)

    def test_connectivity(self):
        assert ring(5).is_connected()
        assert not Topology.from_edges(4, [(0, 1)]).is_connected()

    def test_without_nodes(self):
        t = grid(3, 3)
        survived = t.without_nodes([4])  # kill the centre
        assert survived.n == 9
        assert survived.degree(4) == 0
        assert all(4 not in survived.neighbors(x) for x in range(9))
        # Remaining edges untouched.
        assert (0, 1) in survived.edges

    def test_without_nodes_validation(self):
        with pytest.raises(ValueError):
            grid(2, 2).without_nodes([4])

    def test_without_nodes_stays_in_class(self):
        t = grid(3, 3)
        assert t.without_nodes([0, 8]).in_class(9, 4)


class TestGenerators:
    def test_grid(self):
        t = grid(3, 4)
        assert t.n == 12
        assert t.max_degree <= 4
        assert t.is_connected()
        assert len(t.edges) == 3 * 3 + 2 * 4  # (cols-1)*rows + (rows-1)*cols

    def test_ring(self):
        t = ring(6)
        assert all(t.degree(x) == 2 for x in range(6))

    def test_star(self):
        t = star(8, 4)
        assert t.degree(0) == 4
        assert t.max_degree == 4
        assert t.in_class(8, 4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unit_disk_in_class(self, seed):
        rng = np.random.default_rng(seed)
        t = unit_disk(20, 4, radius=0.4, rng=rng)
        assert t.n == 20
        assert t.max_degree <= 4

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_capped_in_class(self, seed):
        rng = np.random.default_rng(seed)
        t = random_capped(15, 3, p=0.5, rng=rng)
        assert t.max_degree <= 3

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_tree(self, seed):
        rng = np.random.default_rng(seed)
        t = random_tree(12, 3, rng=rng)
        assert len(t.edges) == 11
        assert t.is_connected()
        assert t.max_degree <= 3

    def test_worst_case_regular(self):
        t = worst_case_regular(10, 3, seed=4)
        assert all(t.degree(x) == 3 for x in range(10))

    def test_worst_case_parity(self):
        with pytest.raises(ValueError, match="even"):
            worst_case_regular(9, 3)

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            random_capped(10, 3, p=1.5)


class TestShapeTable:
    #: Each shape's generator called directly, as :data:`SHAPES` documents.
    DIRECT = {
        "regular": lambda n, d, rng: worst_case_regular(
            n, d, seed=int(rng.integers(2**31 - 1))),
        "ring": lambda n, d, rng: ring(n),
        "grid": lambda n, d, rng: grid(4, 4),
        "star": lambda n, d, rng: star(n, d),
        "tree": lambda n, d, rng: random_tree(n, d, rng=rng),
        "unit-disk": lambda n, d, rng: unit_disk(n, d, rng=rng),
    }
    #: The module attribute each shape's builder calls.
    GENERATORS = {"regular": "worst_case_regular", "ring": "ring",
                  "grid": "grid", "star": "star", "tree": "random_tree",
                  "unit-disk": "unit_disk"}

    @pytest.mark.parametrize("seed", [0, 7])
    def test_each_name_builds_what_its_generator_builds(self, seed):
        assert list(SHAPES) == list(self.DIRECT)
        for shape, direct in self.DIRECT.items():
            built = build(shape, 16, 3, np.random.default_rng(seed))
            want = direct(16, 3, np.random.default_rng(seed))
            assert (built.n, built.edges) == (want.n, want.edges), shape

    def test_builders_find_their_generators_when_called(self, monkeypatch):
        for shape, name in self.GENERATORS.items():
            calls = []
            real = getattr(topology_mod, name)
            monkeypatch.setattr(
                topology_mod, name,
                lambda *a, _real=real, _calls=calls, **kw: _calls.append(a)
                or _real(*a, **kw))
            build(shape, 16, 3, np.random.default_rng(0))
            assert len(calls) == 1, shape

    def test_a_grid_needs_a_square_node_count(self):
        with pytest.raises(ValueError, match="square node count, got 15"):
            build("grid", 15, 4, np.random.default_rng(0))

    @pytest.mark.parametrize("shape", ["moebius", ["grid"]])
    def test_an_unknown_shape_lists_the_names(self, shape):
        with pytest.raises(ValueError, match=r"unknown topology .*; "
                           r"expected one of \('regular', 'ring', 'grid', "
                           r"'star', 'tree', 'unit-disk'\)"):
            build(shape, 16, 3, np.random.default_rng(0))
