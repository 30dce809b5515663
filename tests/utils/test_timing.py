"""Tests for repro.utils.timing."""

import pytest

from repro.utils.timing import format_seconds


class TestFormatSeconds:
    @pytest.mark.parametrize(
        "value, expected_suffix",
        [(5e-9, "ns"), (5e-6, "us"), (5e-3, "ms"), (5.0, "s"), (300.0, "min")],
    )
    def test_units(self, value, expected_suffix):
        assert format_seconds(value).endswith(expected_suffix)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            format_seconds(-1.0)
