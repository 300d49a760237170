"""The shared argument-validation helpers."""

import math

import pytest

from repro._validation import (
    check_class_params,
    check_int,
    check_nonnegative_float,
    check_positive_float,
    check_probability,
)


class TestCheckInt:
    def test_passthrough(self):
        assert check_int(5, "x") == 5
        assert check_int(-3, "x") == -3

    def test_bounds(self):
        assert check_int(5, "x", minimum=5, maximum=5) == 5
        with pytest.raises(ValueError, match=">= 6"):
            check_int(5, "x", minimum=6)
        with pytest.raises(ValueError, match="<= 4"):
            check_int(5, "x", maximum=4)

    def test_bool_rejected(self):
        with pytest.raises(TypeError, match="int"):
            check_int(True, "x")

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            check_int(5.0, "x")

    def test_name_in_message(self):
        with pytest.raises(ValueError, match="frob"):
            check_int(1, "frob", minimum=2)


class TestClassParams:
    def test_valid(self):
        assert check_class_params(10, 3) == (10, 3)
        assert check_class_params(3, 2) == (3, 2)

    def test_degree_too_large(self):
        with pytest.raises(ValueError):
            check_class_params(5, 5)

    def test_degree_too_small(self):
        with pytest.raises(ValueError):
            check_class_params(5, 1)

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            check_class_params(2, 2)


class TestFloats:
    def test_probability(self):
        assert check_probability(0.5, "p") == 0.5
        assert check_probability(0, "p") == 0.0
        assert check_probability(1, "p") == 1.0
        with pytest.raises(ValueError):
            check_probability(1.2, "p")
        with pytest.raises(TypeError):
            check_probability("0.5", "p")
        with pytest.raises(TypeError):
            check_probability(True, "p")

    def test_positive(self):
        assert check_positive_float(0.1, "x") == 0.1
        assert check_positive_float(3, "x") == 3.0
        with pytest.raises(ValueError):
            check_positive_float(0.0, "x")
        with pytest.raises(ValueError):
            check_positive_float(-1.0, "x")
        with pytest.raises(ValueError):
            check_positive_float(math.inf, "x")
        with pytest.raises(ValueError):
            check_positive_float(math.nan, "x")

    def test_nonnegative(self):
        assert check_nonnegative_float(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_nonnegative_float(-0.1, "x")
        with pytest.raises(ValueError):
            check_nonnegative_float(math.nan, "x")
        with pytest.raises(ValueError):
            check_nonnegative_float(math.inf, "x")
