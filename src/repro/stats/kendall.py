"""Kendall rank correlation primitives.

The TESC statistic (Eq. 3/4) is a Kendall τ computed over reference-node
density vectors, and the Transaction Correlation baseline uses Kendall τ-b
over binary transaction vectors (Section 5.4).  This module provides:

* :func:`pair_concordance_sum` — ``S = #concordant − #discordant`` pairs,
  i.e. the numerator of Eq. 4.
* :func:`weighted_pair_concordance` — the weighted numerator and denominator
  of the importance-sampling estimator ``t̃`` (Eq. 8).
* :func:`kendall_tau_a` and :func:`kendall_tau_b` — the classic coefficients.

All four validate their inputs and then route through the size-dispatched
kernels of :mod:`repro.stats.fast_kendall`: a vectorised ``O(n²)``
sign-matrix kernel below the crossover (~200 observations, where its small
constant wins) and the exact ``O(n log n)`` merge-sort / Fenwick-tree
kernels above it.  The unweighted kernels return the same integer ``S``,
so dispatch never changes a result.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import EstimationError
from repro.stats.fast_kendall import concordance_sum, weighted_concordance


def _as_vector(values, name: str) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise EstimationError(f"{name} must be a 1-D vector, got shape {array.shape}")
    return array


def concordance_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise concordance signs ``c(i, j)`` as an ``n x n`` matrix.

    ``c(i, j) = sign((x_i - x_j) * (y_i - y_j))`` — +1 for concordant pairs,
    −1 for discordant pairs and 0 for ties, exactly Eq. 1 with the densities
    already computed.  Only useful for small ``n`` (tests, diagnostics).
    """
    x = _as_vector(x, "x")
    y = _as_vector(y, "y")
    if x.size != y.size:
        raise EstimationError("x and y must have the same length")
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    return (dx * dy).astype(np.int64)


def pair_concordance_sum(x: np.ndarray, y: np.ndarray) -> int:
    """``S = #concordant − #discordant`` over all unordered pairs.

    This is the numerator ``sum_{i<j} c(r_i, r_j)`` of Eq. 4, the same
    exact integer whichever kernel :mod:`repro.stats.fast_kendall` picks.
    """
    x = _as_vector(x, "x")
    y = _as_vector(y, "y")
    if x.size != y.size:
        raise EstimationError("x and y must have the same length")
    if x.size < 2:
        raise EstimationError("at least two observations are required")
    return concordance_sum(x, y)


def weighted_pair_concordance(
    x: np.ndarray,
    y: np.ndarray,
    pair_weights: np.ndarray,
) -> Tuple[float, float]:
    """Weighted concordance numerator and denominator of Eq. 8.

    ``pair_weights[i]`` is the per-node weight ``w_i / p(r_i)``; the pair
    weight used by the estimator is the product of the two node weights.
    Returns ``(sum_{i<j} c_ij * W_ij, sum_{i<j} W_ij)``.  The naive and
    Fenwick kernels agree up to float summation order.
    """
    x = _as_vector(x, "x")
    y = _as_vector(y, "y")
    weights = _as_vector(pair_weights, "pair_weights")
    if not (x.size == y.size == weights.size):
        raise EstimationError("x, y and pair_weights must have the same length")
    if x.size < 2:
        raise EstimationError("at least two observations are required")
    if np.any(weights < 0):
        raise EstimationError("pair_weights must be non-negative")
    return weighted_concordance(x, y, weights)


def kendall_tau_a(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall τ-a: ``S / (n(n-1)/2)`` — Eq. 3/4 of the paper."""
    x = _as_vector(x, "x")
    n = x.size
    if n < 2:
        raise EstimationError("at least two observations are required")
    s = pair_concordance_sum(x, y)
    return float(s) / (0.5 * n * (n - 1))


def kendall_tau_b(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall τ-b: tie-adjusted coefficient used for Transaction Correlation.

    ``τ_b = S / sqrt((n0 - n1)(n0 - n2))`` where ``n0 = n(n-1)/2`` and
    ``n1``/``n2`` are the numbers of tied pairs within ``x``/``y``.  Returns
    0.0 when either variable is constant (the coefficient is undefined; zero
    is the conventional "no detectable correlation" value).
    """
    x = _as_vector(x, "x")
    y = _as_vector(y, "y")
    if x.size != y.size:
        raise EstimationError("x and y must have the same length")
    n = x.size
    if n < 2:
        raise EstimationError("at least two observations are required")
    from repro.stats.ties import tie_group_sizes

    s = pair_concordance_sum(x, y)
    n0 = 0.5 * n * (n - 1)
    ties_x = tie_group_sizes(x)
    ties_y = tie_group_sizes(y)
    n1 = float(sum(t * (t - 1) / 2.0 for t in ties_x))
    n2 = float(sum(t * (t - 1) / 2.0 for t in ties_y))
    denominator = np.sqrt((n0 - n1) * (n0 - n2))
    if denominator == 0:
        return 0.0
    return float(s / denominator)
