"""Rank-correlation statistics underpinning the TESC test.

The modules here are pure numerics: they operate on density vectors and have
no knowledge of graphs.  This keeps the statistical machinery independently
testable against brute force and against ``scipy.stats``.
"""

from repro.stats.fast_kendall import (
    DEFAULT_CROSSOVER,
    fenwick_weighted_concordance,
    merge_concordance_sum,
)
from repro.stats.kendall import (
    concordance_matrix,
    kendall_tau_a,
    kendall_tau_b,
    pair_concordance_sum,
    weighted_pair_concordance,
)
from repro.stats.ties import (
    null_variance_no_ties,
    null_variance_numerator_with_ties,
    tie_group_sizes,
    tie_corrected_sigma,
)
from repro.stats.normal import normal_cdf, normal_sf, z_to_p_value
from repro.stats.hypothesis import CorrelationVerdict, SignificanceResult, decide

__all__ = [
    "DEFAULT_CROSSOVER",
    "fenwick_weighted_concordance",
    "merge_concordance_sum",
    "concordance_matrix",
    "kendall_tau_a",
    "kendall_tau_b",
    "pair_concordance_sum",
    "weighted_pair_concordance",
    "tie_group_sizes",
    "null_variance_no_ties",
    "null_variance_numerator_with_ties",
    "tie_corrected_sigma",
    "normal_cdf",
    "normal_sf",
    "z_to_p_value",
    "CorrelationVerdict",
    "SignificanceResult",
    "decide",
]
