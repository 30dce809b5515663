"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.utils.validation import (
    check_fraction,
    check_non_negative_int,
    check_positive_int,
    check_probability_vector,
    check_vicinity_level,
    sorted_unique,
)


class TestCheckPositiveInt:
    def test_valid(self):
        assert check_positive_int(3, "x") == 3

    @pytest.mark.parametrize("value", [0, -1, 1.5, "3", True, None])
    def test_invalid(self, value):
        with pytest.raises(ConfigurationError):
            check_positive_int(value, "x")

    def test_error_message_mentions_name(self):
        with pytest.raises(ConfigurationError, match="my_param"):
            check_positive_int(0, "my_param")


class TestCheckNonNegativeInt:
    def test_zero_is_allowed(self):
        assert check_non_negative_int(0, "x") == 0

    @pytest.mark.parametrize("value", [-1, 2.5, False])
    def test_invalid(self, value):
        with pytest.raises(ConfigurationError):
            check_non_negative_int(value, "x")


class TestCheckFraction:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0, 1])
    def test_valid_inclusive(self, value):
        assert check_fraction(value, "p") == pytest.approx(float(value))

    @pytest.mark.parametrize("value", [-0.1, 1.1, "abc", None])
    def test_invalid(self, value):
        with pytest.raises(ConfigurationError):
            check_fraction(value, "p")

    def test_exclusive_rejects_bounds(self):
        with pytest.raises(ConfigurationError):
            check_fraction(0.0, "p", inclusive=False)
        with pytest.raises(ConfigurationError):
            check_fraction(1.0, "p", inclusive=False)


class TestCheckVicinityLevel:
    def test_valid_levels(self):
        for level in (1, 2, 3, 10):
            assert check_vicinity_level(level) == level

    @pytest.mark.parametrize("level", [0, -1, 1.5])
    def test_invalid_levels(self, level):
        with pytest.raises(ConfigurationError):
            check_vicinity_level(level)


class TestCheckProbabilityVector:
    def test_valid(self):
        check_probability_vector([0.25, 0.25, 0.5], "p")

    def test_not_summing_to_one(self):
        with pytest.raises(ConfigurationError):
            check_probability_vector([0.3, 0.3], "p")

    def test_negative_entry(self):
        with pytest.raises(ConfigurationError):
            check_probability_vector([1.2, -0.2], "p")

    def test_empty(self):
        with pytest.raises(ConfigurationError):
            check_probability_vector([], "p")


class TestSortedUnique:
    @pytest.mark.parametrize("size", [0, 1, 2, 50, 5000])
    def test_equals_np_unique(self, size):
        rng = np.random.default_rng(size)
        for values in (
            rng.integers(0, max(size // 3, 1), size=size),
            np.arange(size, dtype=np.int64),
            rng.integers(0, 4, size=(2, size)),
        ):
            expected = np.unique(values)
            result = sorted_unique(values)
            assert result.dtype == expected.dtype
            assert np.array_equal(result, expected)
