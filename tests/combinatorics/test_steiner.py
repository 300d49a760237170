"""Steiner triple systems, difference triples, and finite planes."""

import hashlib
import json
from itertools import combinations

import pytest

from repro.combinatorics.steiner import (
    affine_plane,
    difference_triples,
    is_projective_plane,
    is_steiner_triple_system,
    projective_plane,
    steiner_triple_system,
)


class TestSTS:
    @pytest.mark.parametrize("v", [9, 15, 21, 27, 33])
    def test_bose_orders(self, v):
        blocks = steiner_triple_system(v)
        assert len(blocks) == v * (v - 1) // 6
        assert is_steiner_triple_system(v, blocks)

    @pytest.mark.parametrize("v", [7, 13, 19, 25, 31, 37])
    def test_cyclic_orders(self, v):
        blocks = steiner_triple_system(v)
        assert len(blocks) == v * (v - 1) // 6
        assert is_steiner_triple_system(v, blocks)

    @pytest.mark.parametrize("v", [3])
    def test_trivial_order(self, v):
        # v = 3: single block {0,1,2} via Bose (t = 0).
        blocks = steiner_triple_system(v)
        assert blocks == [frozenset({0, 1, 2})]

    @pytest.mark.parametrize("v", [4, 5, 6, 8, 10, 11, 12, 14])
    def test_inadmissible_orders_rejected(self, v):
        with pytest.raises(ValueError, match="STS"):
            steiner_triple_system(v)

    def test_blocks_pairwise_intersect_in_at_most_one(self):
        """The 2-cover-freeness source property, checked directly."""
        blocks = steiner_triple_system(13)
        for b1, b2 in combinations(blocks, 2):
            assert len(b1 & b2) <= 1


class TestSTSVerifier:
    def test_rejects_duplicate_pair(self):
        blocks = [frozenset({0, 1, 2}), frozenset({0, 1, 3})]
        assert not is_steiner_triple_system(7, blocks)

    def test_rejects_wrong_block_size(self):
        assert not is_steiner_triple_system(7, [frozenset({0, 1})])

    def test_rejects_out_of_range(self):
        assert not is_steiner_triple_system(7, [frozenset({0, 1, 7})])

    def test_rejects_missing_pairs(self):
        blocks = steiner_triple_system(7)[:-1]
        assert not is_steiner_triple_system(7, blocks)


class TestDifferenceTriples:
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6, 8, 10, 13, 15])
    def test_partition_property(self, t):
        v = 6 * t + 1
        triples = difference_triples(t, v)
        assert triples is not None
        used = [x for tr in triples for x in tr]
        assert sorted(used) == list(range(1, 3 * t + 1))
        for a, b, c in triples:
            assert a + b == c or a + b + c == v

    def test_minimum_t(self):
        assert difference_triples(1, 7) == [(1, 2, 3)]

    def test_budget_guard_raises_cleanly(self):
        """Beyond the tractable range the search refuses rather than hangs."""
        with pytest.raises(ValueError, match="node budget"):
            difference_triples(40, 241)

    def test_auto_selection_avoids_untractable_orders(self):
        """steiner_schedule never triggers the exponential search."""
        from repro.core.nonsleeping import steiner_schedule

        s = steiner_schedule(1800, 2)  # would pick v=104..109 range naively
        assert s.frame_length % 6 == 3 or s.frame_length <= 103


class TestProjectivePlane:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_axioms(self, q):
        v, lines = projective_plane(q)
        assert v == q * q + q + 1
        assert len(lines) == v
        assert is_projective_plane(v, lines)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_two_lines_meet_in_exactly_one_point(self, q):
        _, lines = projective_plane(q)
        for l1, l2 in combinations(lines, 2):
            assert len(l1 & l2) == 1

    def test_fano_plane(self):
        v, lines = projective_plane(2)
        assert v == 7
        assert all(len(line) == 3 for line in lines)

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            projective_plane(6)


class TestProjectiveGolden:
    """SHA-256 of ``[v, lines]`` with each line a sorted point list,
    recorded before the incidence test was vectorized: the line order and every line's points are pinned for each order ``q``,
    so the substrates and schedules built on them cannot drift."""

    DIGESTS = {
        2: "c2f5bf6ad5f0ab7e45c113fa9aa0bd87272adfb8931764fbdf4738fe982a7d22",
        3: "e83c2a23b3a5d060277cc865ac32c3f7442086818049c919cfa508994c7a6f48",
        4: "ccf8801027c6e61ae675e45261433344812b4b7fd15069df4ba967789c613410",
        5: "fb4e487f357a010db2bfd3531378ffc18a2f9b7eb6828fdbf6bd7d3910fe4134",
        7: "42f11b4db10366f8f7e1abe87ad488311d06288b4eb5a4dc37f04f2707f0ecc0",
        8: "c6518b1a4a4ff720818d3633c952d273a7321d7268d8cfaee308939edd6acde8",
        9: "c5503fae89d84753a06c9d18df640ccfe5d17d67e3f85b9c732c9b1413e3a41e",
        11: "6cbef9a884b6e7c7ed210cad3920a0b34fbbbf901cd7937158193656e3b1cb58",
        13: "bafaecd1964eb1e21faa693eaa0730b4ea9cca3057398302dc697a91cdfba8cc",
        16: "2f6bf8f61d1c030fa1962d10f816b9edc8e07127c8cbff3ef69f410ccde30df0",
        17: "968234d403a07c2c2b7cec68b1b44dca79670e0a39cba6600637b5f97b88e5d3",
        19: "d2a501b6c5a4233e81fd0814ebf37170c60077843ed8ff1942adc73a9f5808d9",
        23: "9dbccceda5378035dec1d009f71073950be7fb7a47ea292045b4ce42dfb6ef0e",
        25: "cc947acffcd599b082f60ee213c1862d75304c6d03b4bcf51572b011a020c8e5",
        27: "8c050545eb59a099e0bdacab88f71f6e20af3b46788f420adc727931b5b41783",
        29: "31f5831ded854ea67b755dcb1729a4e114d722c4b68cba8255076446ed5ba2c6",
        31: "08eb536fc07ba4d60de92c607cf4f96f91998aad8c73180c26af9832cb946a86",
        32: "ed3677f9eae502bbfb59419532f609f8896f078d3fc2f0e39bb3fe7deb159586",
    }

    def test_every_prime_power_order_up_to_32(self):
        from repro.combinatorics.gf import is_prime_power

        assert sorted(self.DIGESTS) == [q for q in range(2, 33)
                                        if is_prime_power(q)]

    @pytest.mark.parametrize("q", sorted(DIGESTS))
    def test_lines_match_digest(self, q):
        v, lines = projective_plane(q)
        text = json.dumps([v, [sorted(line) for line in lines]],
                          separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[q]


class TestProjectiveVerifier:
    def test_rejects_wrong_counts(self):
        v, lines = projective_plane(3)
        assert not is_projective_plane(v, lines[:-1])

    def test_rejects_tampered_line(self):
        v, lines = projective_plane(2)
        bad = list(lines)
        first = sorted(bad[0])
        second = sorted(bad[1])
        # Swap a point to create a duplicate pair somewhere.
        tampered = frozenset(first[:-1] + [next(p for p in second
                                                if p not in first)])
        bad[0] = tampered
        assert not is_projective_plane(v, bad)


class TestAffinePlane:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_counts(self, q):
        v, lines = affine_plane(q)
        assert v == q * q
        assert len(lines) == q * q + q
        assert all(len(line) == q for line in lines)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_pairwise_intersection_at_most_one(self, q):
        _, lines = affine_plane(q)
        for l1, l2 in combinations(lines, 2):
            assert len(l1 & l2) <= 1

    @pytest.mark.parametrize("q", [3, 4])
    def test_every_pair_on_exactly_one_line(self, q):
        v, lines = affine_plane(q)
        counts = {pair: 0 for pair in combinations(range(v), 2)}
        for line in lines:
            for pair in combinations(sorted(line), 2):
                counts[pair] += 1
        assert all(c == 1 for c in counts.values())

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            affine_plane(10)
