"""The Schedule datatype: construction, validation, accessors, conversions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import Schedule
from tests.conftest import random_schedule_strategy


class TestConstruction:
    def test_from_sets(self):
        s = Schedule.from_sets(4, [[0], [1, 2]], [[1], [3]])
        assert s.frame_length == 2
        assert s.tx_set(0) == {0}
        assert s.tx_set(1) == {1, 2}
        assert s.rx_set(1) == {3}

    def test_non_sleeping_fills_receivers(self):
        s = Schedule.non_sleeping(5, [[0], [1, 2]])
        assert s.is_non_sleeping()
        assert s.rx_set(0) == {1, 2, 3, 4}
        assert s.rx_set(1) == {0, 3, 4}

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="intersect"):
            Schedule.from_sets(3, [[0, 1]], [[1, 2]])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            Schedule(3, (1,), (2, 4))

    def test_empty_frame_rejected(self):
        with pytest.raises(ValueError, match="at least one slot"):
            Schedule(3, (), ())

    def test_out_of_range_node(self):
        with pytest.raises(ValueError):
            Schedule.from_sets(3, [[3]], [[]])
        with pytest.raises(ValueError):
            Schedule.from_sets(3, [[0]], [[-1]])

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError):
            Schedule(2, (4,), (0,))

    def test_from_matrices_roundtrip(self):
        s = Schedule.from_sets(5, [[0, 2], [1]], [[1], [0, 4]])
        s2 = Schedule.from_matrices(s.tx_matrix(), s.rx_matrix())
        assert s2 == s

    def test_from_matrices_shape_check(self):
        with pytest.raises(ValueError):
            Schedule.from_matrices(np.zeros((2, 3), dtype=bool),
                                   np.zeros((3, 3), dtype=bool))


class TestAccessors:
    def test_tran_recv_consistency(self):
        s = Schedule.from_sets(4, [[0], [1], [0, 2]], [[1, 2], [0], [3]])
        assert s.tran(0) == {0, 2}
        assert s.tran(1) == {1}
        assert s.tran(3) == frozenset()
        assert s.recv(1) == {0}
        assert s.recv(3) == {2}

    def test_tran_mask_matches_tx(self):
        s = Schedule.from_sets(4, [[0, 1], [2]], [[2], [0]])
        for x in range(4):
            for i in range(s.frame_length):
                in_tx = bool(s.tx[i] >> x & 1)
                in_mask = bool(s.tran_mask(x) >> i & 1)
                assert in_tx == in_mask

    def test_counts(self):
        s = Schedule.from_sets(5, [[0, 1, 2], []], [[3], [0, 1]])
        assert s.tx_counts == (3, 0)
        assert s.rx_counts == (1, 2)

    def test_node_range_validated(self):
        s = Schedule.from_sets(3, [[0]], [[1]])
        with pytest.raises(ValueError):
            s.tran_mask(3)
        with pytest.raises(ValueError):
            s.recv_mask(-1)


class TestClassification:
    def test_alpha_schedule(self):
        s = Schedule.from_sets(5, [[0, 1], [2]], [[2, 3], [0]])
        assert s.is_alpha_schedule(2, 2)
        assert not s.is_alpha_schedule(1, 2)
        assert not s.is_alpha_schedule(2, 1)

    def test_non_sleeping_detection(self):
        assert Schedule.non_sleeping(3, [[0]]).is_non_sleeping()
        assert not Schedule.from_sets(3, [[0]], [[1]]).is_non_sleeping()

    def test_duty_cycle(self):
        s = Schedule.from_sets(3, [[0], [], [0]], [[1], [1], []])
        assert s.duty_cycle(0) == Fraction(2, 3)
        assert s.duty_cycle(1) == Fraction(2, 3)
        assert s.duty_cycle(2) == Fraction(0)
        assert s.average_duty_cycle() == Fraction(4, 9)

    def test_duty_cycles_list(self):
        s = Schedule.non_sleeping(3, [[0]])
        assert s.duty_cycles() == [Fraction(1)] * 3
        assert s.average_duty_cycle() == Fraction(1)

    def test_transmit_share(self):
        s = Schedule.from_sets(3, [[0], [0], [1]], [[], [], []])
        assert s.transmit_share(0) == Fraction(2, 3)
        assert s.transmit_share(1) == Fraction(1, 3)
        assert s.transmit_share(2) == Fraction(0)


class TestConversions:
    def test_matrices_shapes(self):
        s = Schedule.from_sets(4, [[0], [1]], [[2], [3]])
        assert s.tx_matrix().shape == (2, 4)
        assert s.rx_matrix().shape == (2, 4)
        assert s.tx_matrix().sum() == 2

    def test_restricted_to(self):
        s = Schedule.non_sleeping(5, [[0, 4], [2]])
        r = s.restricted_to(3)
        assert r.n == 3
        assert r.tx_set(0) == {0}
        assert r.rx_set(0) == {1, 2}

    def test_restricted_to_bounds(self):
        s = Schedule.non_sleeping(3, [[0]])
        with pytest.raises(ValueError):
            s.restricted_to(4)

    def test_repr(self):
        s = Schedule.non_sleeping(3, [[0]])
        assert "non-sleeping" in repr(s)
        assert "n=3" in repr(s)


@given(sched=random_schedule_strategy())
@settings(max_examples=40, deadline=None)
def test_tran_recv_disjoint_per_slot(sched):
    """A node never transmits and receives in the same slot."""
    for x in range(sched.n):
        assert sched.tran_mask(x) & sched.recv_mask(x) == 0


@given(sched=random_schedule_strategy())
@settings(max_examples=40, deadline=None)
def test_counts_sum_to_popcounts(sched):
    assert sum(sched.tx_counts) == sum(m.bit_count() for m in sched.tx)
    assert sum(sched.rx_counts) == sum(m.bit_count() for m in sched.rx)


@given(sched=random_schedule_strategy())
@settings(max_examples=30, deadline=None)
def test_matrix_roundtrip_property(sched):
    assert Schedule.from_matrices(sched.tx_matrix(), sched.rx_matrix()) == sched


@st.composite
def wide_schedules(draw):
    """Schedules over up to 200 nodes (masks of one to 25 bytes), with
    the byte-boundary sizes 8, 64, 65 and 100 drawn often."""
    n = draw(st.one_of(st.sampled_from((8, 64, 65, 100)),
                       st.integers(min_value=1, max_value=200)))
    masks = st.integers(min_value=0, max_value=2**n - 1)
    length = draw(st.integers(min_value=1, max_value=12))
    tx = tuple(draw(masks) for _ in range(length))
    rx = tuple(draw(masks) & ~t for t in tx)
    return Schedule(n, tx, rx)


@given(sched=wide_schedules())
@settings(max_examples=60, deadline=None)
def test_matrices_match_bitwise_reference(sched):
    """Row i, column x is bit x of the slot-i mask, for any width."""
    for masks, matrix in ((sched.tx, sched.tx_matrix()),
                          (sched.rx, sched.rx_matrix())):
        assert matrix.dtype == bool
        assert matrix.shape == (sched.frame_length, sched.n)
        expected = [[(m >> x) & 1 == 1 for x in range(sched.n)]
                    for m in masks]
        assert matrix.tolist() == expected
    assert Schedule.from_matrices(sched.tx_matrix(),
                                  sched.rx_matrix()) == sched
