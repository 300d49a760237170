"""Cover-free families: bitmask utilities, exact/sampled checkers, constructions."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.combinatorics.coverfree import (
    CoverFreeFamily,
    can_cover,
    list_from_mask,
    mask_from_set,
    max_coverage,
    set_from_mask,
    smallest_polynomial_parameters,
)


class TestMaskUtils:
    def test_roundtrip(self):
        for s in [set(), {0}, {1, 3, 5}, {0, 63}, {7, 8, 9}]:
            assert set_from_mask(mask_from_set(s)) == frozenset(s)

    def test_mask_values(self):
        assert mask_from_set([]) == 0
        assert mask_from_set([0]) == 1
        assert mask_from_set([0, 2]) == 5

    def test_set_from_zero(self):
        assert set_from_mask(0) == frozenset()

    def test_list_from_zero(self):
        assert list_from_mask(0) == []

    @given(mask=st.integers(min_value=0, max_value=(1 << 600) - 1))
    @settings(max_examples=300, deadline=None)
    def test_list_unpack_property(self, mask):
        bits = list_from_mask(mask)
        assert bits == sorted(set(bits))  # strictly ascending
        assert mask_from_set(bits) == mask
        assert set_from_mask(mask) == frozenset(bits)
        assert len(bits) == mask.bit_count()


def brute_can_cover(target: int, candidates, r: int) -> bool:
    """Oracle: enumerate all <= r subsets."""
    if target == 0:
        return True
    for size in range(1, min(r, len(candidates)) + 1):
        for combo in combinations(candidates, size):
            union = 0
            for c in combo:
                union |= c
            if target & ~union == 0:
                return True
    return False


def brute_max_coverage(target: int, candidates, r: int) -> int:
    best = 0
    for size in range(1, min(r, len(candidates)) + 1):
        for combo in combinations(candidates, size):
            union = 0
            for c in combo:
                union |= c
            best = max(best, (union & target).bit_count())
    return best


class TestCanCover:
    def test_empty_target(self):
        assert can_cover(0, [1, 2], 1)

    def test_zero_budget(self):
        assert not can_cover(1, [1], 0)

    def test_single(self):
        assert can_cover(0b111, [0b111], 1)
        assert not can_cover(0b111, [0b110], 1)

    def test_needs_two(self):
        assert not can_cover(0b111, [0b110, 0b011], 1)
        assert can_cover(0b111, [0b110, 0b011], 2)

    def test_uncoverable_bit(self):
        assert not can_cover(0b1001, [0b0001, 0b0011], 5)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_bruteforce(self, data):
        bits = data.draw(st.integers(min_value=1, max_value=8))
        target = data.draw(st.integers(min_value=1, max_value=(1 << bits) - 1))
        n_cands = data.draw(st.integers(min_value=0, max_value=6))
        cands = [data.draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
                 for _ in range(n_cands)]
        r = data.draw(st.integers(min_value=0, max_value=4))
        assert can_cover(target, cands, r) == brute_can_cover(target, cands, r)


class TestMaxCoverage:
    def test_exact_simple(self):
        assert max_coverage(0b1111, [0b1100, 0b0011, 0b1000], 2) == 4
        assert max_coverage(0b1111, [0b1100, 0b1000], 2) == 2

    def test_zero_budget(self):
        assert max_coverage(0b111, [0b111], 0) == 0

    def test_greedy_is_lower_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            target = int(rng.integers(1, 256))
            cands = [int(rng.integers(0, 256)) for _ in range(5)]
            r = int(rng.integers(1, 4))
            greedy = max_coverage(target, cands, r, exact=False)
            exact = max_coverage(target, cands, r, exact=True)
            assert greedy <= exact

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_bruteforce(self, data):
        bits = data.draw(st.integers(min_value=1, max_value=8))
        target = data.draw(st.integers(min_value=1, max_value=(1 << bits) - 1))
        n_cands = data.draw(st.integers(min_value=1, max_value=6))
        cands = [data.draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
                 for _ in range(n_cands)]
        r = data.draw(st.integers(min_value=1, max_value=4))
        assert max_coverage(target, cands, r) == \
            brute_max_coverage(target, cands, r)


def brute_is_cover_free(family: CoverFreeFamily, d: int) -> bool:
    n = family.size
    d = min(d, n - 1)
    if d <= 0:
        return all(b != 0 for b in family.blocks)
    for i in range(n):
        others = [family.blocks[j] for j in range(n) if j != i]
        for combo in combinations(others, d):
            union = 0
            for c in combo:
                union |= c
            if family.blocks[i] & ~union == 0:
                return False
    return True


class TestCoverFreeFamily:
    def test_trivial_family(self):
        fam = CoverFreeFamily.trivial(6)
        assert fam.size == 6
        assert fam.ground == 6
        for d in range(1, 6):
            assert fam.is_d_cover_free(d)

    def test_from_sets_roundtrip(self):
        fam = CoverFreeFamily.from_sets(5, [{0, 1}, {2, 3}, {1, 4}])
        assert fam.block_sets() == [frozenset({0, 1}), frozenset({2, 3}),
                                    frozenset({1, 4})]

    def test_from_sets_range_check(self):
        with pytest.raises(ValueError):
            CoverFreeFamily.from_sets(3, [{0, 3}])

    def test_invalid_mask_rejected(self):
        with pytest.raises(ValueError):
            CoverFreeFamily(3, (8,))

    def test_block_sizes(self):
        fam = CoverFreeFamily.from_sets(6, [{0, 1, 2}, {3}, set()])
        assert fam.block_sizes().tolist() == [3, 1, 0]

    def test_empty_block_never_cover_free(self):
        fam = CoverFreeFamily.from_sets(4, [{0}, set(), {1}])
        assert not fam.is_d_cover_free(1)
        assert not fam.is_d_cover_free(1, exact=False,
                                       rng=np.random.default_rng(0))

    def test_covered_block_detected(self):
        # Pairwise-incomparable blocks: 1-cover-free, but {0,1} is covered
        # by the union of the other two.
        fam = CoverFreeFamily.from_sets(4, [{0, 1}, {1, 2}, {2, 0}])
        assert not fam.is_d_cover_free(2)
        assert fam.is_d_cover_free(1)

    def test_subset_block_violates_d1(self):
        # {0} is a subset of {0,1}: even d=1 fails (Sperner condition).
        fam = CoverFreeFamily.from_sets(4, [{0, 1}, {0}, {1}])
        assert not fam.is_d_cover_free(1)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_exact_checker_matches_bruteforce(self, data):
        ground = data.draw(st.integers(min_value=2, max_value=7))
        size = data.draw(st.integers(min_value=2, max_value=5))
        blocks = tuple(
            data.draw(st.integers(min_value=0, max_value=(1 << ground) - 1))
            for _ in range(size)
        )
        fam = CoverFreeFamily(ground, blocks)
        d = data.draw(st.integers(min_value=1, max_value=4))
        assert fam.is_d_cover_free(d) == brute_is_cover_free(fam, d)

    def test_sampled_never_accepts_below_exact(self, rng):
        """Sampled=False results are genuine violations."""
        fam = CoverFreeFamily.from_sets(4, [{0, 1}, {1, 2}, {2, 0}])
        # d=2 is violated: the sampler must eventually find it.
        assert not fam.is_d_cover_free(2, exact=False, samples=500, rng=rng)

    def test_strength(self):
        fam = CoverFreeFamily.trivial(5)
        assert fam.cover_free_strength() == 4
        fam2 = CoverFreeFamily.from_sets(4, [{0, 1}, {1, 2}, {2, 0}])
        assert fam2.cover_free_strength() == 1
        fam3 = CoverFreeFamily.from_sets(4, [{0, 1}, {0}, {1}])
        assert fam3.cover_free_strength() == 0

    def test_find_violation(self):
        fam = CoverFreeFamily.from_sets(4, [{0, 1}, {1, 2}, {2, 0}])
        witness = fam.find_violation(2)
        assert witness is not None
        i, covers = witness
        union = 0
        for j in covers:
            union |= fam.blocks[j]
        assert fam.blocks[i] & ~union == 0

    def test_find_violation_none_for_cover_free(self):
        assert CoverFreeFamily.trivial(4).find_violation(2) is None

    def test_min_pairwise_margin(self):
        fam = CoverFreeFamily.from_sets(6, [{0, 1, 2}, {2, 3, 4}, {4, 5, 0}])
        # sizes 3, pairwise intersections 1 -> margin 2
        assert fam.min_pairwise_margin() == 2


class TestConstructions:
    @pytest.mark.parametrize("q,k,d", [(3, 1, 2), (5, 1, 4), (5, 1, 2),
                                       (7, 2, 3), (4, 1, 3)])
    def test_polynomial_family_cover_free(self, q, k, d):
        assert k * d < q, "test parameters must satisfy the sufficiency bound"
        fam = CoverFreeFamily.from_polynomial_code(q, k, count=min(q ** (k + 1), 30))
        assert fam.ground == q * q
        assert fam.is_d_cover_free(d)

    def test_polynomial_blocks_have_q_elements(self):
        fam = CoverFreeFamily.from_polynomial_code(5, 1)
        assert (fam.block_sizes() == 5).all()

    @pytest.mark.parametrize("v", [7, 9, 13, 15])
    def test_steiner_family_2_cover_free(self, v):
        fam = CoverFreeFamily.from_steiner_triple_system(v)
        assert fam.is_d_cover_free(2)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_projective_family_q_cover_free(self, q):
        fam = CoverFreeFamily.from_projective_plane(q)
        assert fam.is_d_cover_free(q)
        # And q+1 must fail: q+1 lines through a common point cover any
        # other line entirely... actually they cover all points, so check
        # directly that strength does not exceed q for small q.
        if q == 2:
            assert not fam.is_d_cover_free(3)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_affine_family_cover_free(self, q):
        fam = CoverFreeFamily.from_affine_plane(q)
        if q > 2:
            assert fam.is_d_cover_free(q - 1)

    def test_count_prefix(self):
        fam = CoverFreeFamily.from_steiner_triple_system(9, count=5)
        assert fam.size == 5


class TestParameterSelection:
    @pytest.mark.parametrize("n,d", [(10, 2), (25, 3), (100, 2), (64, 5),
                                     (500, 3)])
    def test_parameters_admissible(self, n, d):
        q, k = smallest_polynomial_parameters(n, d)
        assert q >= k * d + 1
        assert q ** (k + 1) >= n

    def test_small_case(self):
        q, k = smallest_polynomial_parameters(25, 3)
        assert (q, k) == (5, 1)  # L = 25, the known optimum here

    def test_frame_not_absurd(self):
        # Sanity: for n=100, D=2 the k=1 choice q=11 gives L=121; the
        # selection must do at least that well.
        q, k = smallest_polynomial_parameters(100, 2)
        assert q * q <= 121
