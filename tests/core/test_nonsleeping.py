"""Non-sleeping schedule factories and parameter auto-selection."""

import re

import pytest

from repro.combinatorics.coverfree import CoverFreeFamily
from repro.core import nonsleeping
from repro.core.nonsleeping import (
    FAMILIES,
    best_nonsleeping_schedule,
    from_cover_free_family,
    polynomial_schedule,
    projective_plane_schedule,
    steiner_schedule,
    tdma_schedule,
)
from repro.core.transparency import is_topology_transparent, satisfies_requirement1


class TestFromCoverFree:
    def test_mapping(self):
        fam = CoverFreeFamily.from_sets(4, [{0, 1}, {2}, {1, 3}])
        sched = from_cover_free_family(fam, 3)
        assert sched.frame_length == 4
        assert sched.tran(0) == {0, 1}
        assert sched.tran(1) == {2}
        assert sched.tran(2) == {1, 3}
        assert sched.is_non_sleeping()

    def test_too_few_blocks(self):
        fam = CoverFreeFamily.trivial(3)
        with pytest.raises(ValueError, match="blocks"):
            from_cover_free_family(fam, 4)

    def test_d_cover_free_gives_requirement1(self):
        fam = CoverFreeFamily.from_polynomial_code(3, 1, count=6)
        assert fam.is_d_cover_free(2)
        sched = from_cover_free_family(fam, 6)
        assert satisfies_requirement1(sched, 2)


class TestTDMA:
    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_structure(self, n):
        s = tdma_schedule(n)
        assert s.frame_length == n
        assert s.tx_counts == (1,) * n
        assert s.is_non_sleeping()

    @pytest.mark.parametrize("n,d", [(5, 2), (5, 4), (7, 3)])
    def test_transparent(self, n, d):
        assert is_topology_transparent(tdma_schedule(n), d)


class TestPolynomial:
    @pytest.mark.parametrize("n,d", [(9, 2), (25, 3), (16, 2), (27, 4)])
    def test_auto_params_transparent(self, n, d):
        s = polynomial_schedule(n, d)
        assert s.is_non_sleeping()
        assert satisfies_requirement1(s, d)

    def test_explicit_params(self):
        s = polynomial_schedule(9, 2, q=3, k=1)
        assert s.frame_length == 9
        assert all(c == 3 for c in (s.tran_mask(x).bit_count()
                                    for x in range(9)))

    def test_full_code_uniform_slots(self):
        """n = q**(k+1) gives exactly q**k transmitters per slot."""
        s = polynomial_schedule(25, 3, q=5, k=1)
        assert all(c == 5 for c in s.tx_counts)

    def test_sufficiency_bound_enforced(self):
        with pytest.raises(ValueError, match="k\\*D"):
            polynomial_schedule(9, 3, q=3, k=1)  # 1*3+1 > 3

    def test_codeword_capacity_enforced(self):
        with pytest.raises(ValueError, match="codewords"):
            polynomial_schedule(10, 2, q=3, k=1)  # only 9 codewords

    def test_half_specified_params_rejected(self):
        with pytest.raises(ValueError, match="both"):
            polynomial_schedule(9, 2, q=3)


class TestSteiner:
    @pytest.mark.parametrize("n", [5, 12, 20])
    def test_auto_transparent(self, n):
        s = steiner_schedule(n, 2)
        assert satisfies_requirement1(s, 2)
        assert all(s.tran_mask(x).bit_count() == 3 for x in range(n))

    def test_degree_limit(self):
        with pytest.raises(ValueError, match="2-cover-free"):
            steiner_schedule(10, 3)

    def test_explicit_order(self):
        s = steiner_schedule(7, 2, v=7)
        assert s.frame_length == 7

    def test_order_too_small(self):
        with pytest.raises(ValueError, match="triples"):
            steiner_schedule(8, 2, v=7)  # STS(7) has exactly 7 triples

    def test_inadmissible_order(self):
        with pytest.raises(ValueError, match="STS"):
            steiner_schedule(5, 2, v=8)


class TestProjective:
    @pytest.mark.parametrize("n,d", [(7, 2), (13, 3), (20, 4)])
    def test_auto_transparent(self, n, d):
        s = projective_plane_schedule(n, d)
        assert satisfies_requirement1(s, d)

    def test_explicit_q(self):
        s = projective_plane_schedule(7, 2, q=2)
        assert s.frame_length == 7
        assert all(s.tran_mask(x).bit_count() == 3 for x in range(7))

    def test_q_below_degree_rejected(self):
        with pytest.raises(ValueError, match="q >= D"):
            projective_plane_schedule(7, 3, q=2)

    def test_not_enough_lines(self):
        with pytest.raises(ValueError, match="lines"):
            projective_plane_schedule(8, 2, q=2)


class TestMOLS:
    @pytest.mark.parametrize("n,d", [(9, 2), (30, 2), (25, 3), (100, 2)])
    def test_auto_transparent(self, n, d):
        from repro.core.nonsleeping import mols_schedule

        s = mols_schedule(n, d)
        assert s.is_non_sleeping()
        assert satisfies_requirement1(s, d)

    def test_composite_order_supported(self):
        from repro.core.nonsleeping import mols_schedule

        # m = 10 is not a prime power; TD(3, 10) covers n <= 100 at D = 2.
        s = mols_schedule(100, 2, m=10, k=3)
        assert s.frame_length == 30
        assert satisfies_requirement1(s, 2)

    def test_k_too_small(self):
        from repro.core.nonsleeping import mols_schedule

        with pytest.raises(ValueError, match="k >= D"):
            mols_schedule(9, 3, m=5, k=3)

    def test_not_enough_blocks(self):
        from repro.core.nonsleeping import mols_schedule

        with pytest.raises(ValueError, match="blocks"):
            mols_schedule(26, 2, m=5, k=3)

    def test_half_params_rejected(self):
        from repro.core.nonsleeping import mols_schedule

        with pytest.raises(ValueError, match="both"):
            mols_schedule(9, 2, m=5)


class TestBest:
    @pytest.mark.parametrize("n,d", [(10, 2), (25, 3), (50, 2), (40, 5)])
    def test_returns_shortest_known(self, n, d):
        name, sched = best_nonsleeping_schedule(n, d)
        assert sched.frame_length <= tdma_schedule(n).frame_length
        assert sched.frame_length <= polynomial_schedule(n, d).frame_length
        assert name in {"tdma", "polynomial", "steiner", "projective", "mols"}

    def test_result_transparent(self):
        _, sched = best_nonsleeping_schedule(20, 2)
        assert is_topology_transparent(sched, 2)


#: Each family name's factory in repro.core.nonsleeping, and whether the
#: factory takes D: the direct calls the table is checked against.
FACTORIES = {
    "tdma": ("tdma_schedule", False),
    "polynomial": ("polynomial_schedule", True),
    "steiner": ("steiner_schedule", True),
    "projective": ("projective_plane_schedule", True),
    "mols": ("mols_schedule", True),
}


class TestFamilyTable:
    @pytest.mark.parametrize("n,d", [(12, 2), (25, 3), (40, 5)])
    def test_each_name_builds_what_its_factory_builds(self, n, d):
        assert list(FAMILIES) == list(FACTORIES)
        for name, (factory, takes_d) in FACTORIES.items():
            args = (n, d) if takes_d else (n,)
            try:
                direct = getattr(nonsleeping, factory)(*args)
            except ValueError as exc:  # Steiner past D = 2
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    FAMILIES[name](n, d)
                continue
            assert FAMILIES[name](n, d) == direct

    def test_builders_find_their_factories_when_called(self, monkeypatch):
        """A wrapper set on the module attribute (the end-to-end
        harness times the substrates this way) sees the table's call."""
        for name, (factory, _) in FACTORIES.items():
            calls = []
            real = getattr(nonsleeping, factory)
            monkeypatch.setattr(
                nonsleeping, factory,
                lambda *a, _real=real, _calls=calls: _calls.append(a)
                or _real(*a))
            FAMILIES[name](12, 2)
            assert len(calls) == 1, name

    @pytest.mark.parametrize("n,d", [(12, 2), (25, 3), (40, 5)])
    def test_best_is_the_first_shortest_table_entry(self, n, d):
        built = []
        for name, build in FAMILIES.items():
            try:
                built.append((name, build(n, d)))
            except ValueError:
                continue
        shortest = min(s.frame_length for _, s in built)
        want = next((name, s) for name, s in built
                    if s.frame_length == shortest)
        assert best_nonsleeping_schedule(n, d) == want
