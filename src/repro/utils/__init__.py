"""Shared utilities: RNG handling, timing, validation, logging, tables."""

from repro.utils.rng import RandomState, ensure_rng, spawn_rngs
from repro.utils.timing import format_seconds
from repro.utils.validation import (
    check_fraction,
    check_non_negative_int,
    check_positive_int,
    check_vicinity_level,
)
from repro.utils.tables import TextTable

__all__ = [
    "RandomState",
    "ensure_rng",
    "spawn_rngs",
    "format_seconds",
    "check_fraction",
    "check_non_negative_int",
    "check_positive_int",
    "check_vicinity_level",
    "TextTable",
]
