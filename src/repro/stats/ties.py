"""Tie handling and the tie-corrected null variance (Eq. 5 and Eq. 6).

Under the null hypothesis (the two events are independent with respect to the
graph structure) the sampled Kendall statistic ``t(a, b)`` is asymptotically
normal with mean 0.  Without ties its variance is Eq. 5:

    sigma^2 = 2 (2n + 5) / (9 n (n - 1)).

Reference nodes whose vicinities see only one of the two events create ties
in the density vectors, and the paper switches to the tie-corrected variance
of the *numerator* (Eq. 6), then divides by ``[n(n-1)/2]^2``.  More/larger
ties always shrink the variance.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import EstimationError


def tie_group_sizes(values: Sequence[float]) -> List[int]:
    """Sizes of the tie groups in ``values``.

    Every group of equal values of size >= 2 contributes its size; untied
    values are excluded (a "tie" of size 1 contributes nothing to Eq. 6, so
    including them would only add zero terms).
    """
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise EstimationError(f"values must be a 1-D vector, got shape {array.shape}")
    if array.size == 0:
        return []
    _, counts = np.unique(array, return_counts=True)
    return [int(c) for c in counts if c >= 2]


def null_variance_no_ties(n: int) -> float:
    """Eq. 5: variance of ``t(a, b)`` under the null hypothesis, no ties."""
    if n < 2:
        raise EstimationError(f"at least two reference nodes are required, got {n}")
    return 2.0 * (2 * n + 5) / (9.0 * n * (n - 1))


#: Below this many observations Eq. 6's cubic tie sums (at most ``2·n³``)
#: fit in int64; larger populations sum them in Python integers.
EXACT_INT64_OBSERVATIONS = 1 << 20


def exact_integers(values, bound: int) -> np.ndarray:
    """``values`` as an array whose Eq. 6 arithmetic is exact.

    ``bound`` caps the observation count the values come from: int64 below
    :data:`EXACT_INT64_OBSERVATIONS`, Python integers (object) at or above.
    """
    return np.asarray(values, dtype=np.int64 if bound < EXACT_INT64_OBSERVATIONS else object)


def tie_polynomials(sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 6's per-group terms ``u(u-1)(2u+5)``, ``u(u-1)(u-2)``, ``u(u-1)``.

    Elementwise over an :func:`exact_integers` array; groups of size 0 or 1
    contribute zero to all three, so whole code-count vectors may be passed.
    """
    pairs = sizes * (sizes - 1)
    return pairs * (2 * sizes + 5), pairs * (sizes - 2), pairs


def tie_sums(sizes: Sequence[int], bound: int) -> Tuple[int, int, int]:
    """The three Eq. 6 tie sums of ``sizes``, exact Python integers.

    >>> tie_sums([2, 3], bound=10)
    (84, 6, 8)
    """
    terms = tie_polynomials(exact_integers(sizes, bound))
    return tuple(int(term.sum()) for term in terms)


def variance_from_tie_sums(n, sums_x, sums_y) -> np.ndarray:
    """Eq. 6 from exact tie sums, elementwise over arrays of populations.

    ``n`` is an :func:`exact_integers` array of population sizes (all >= 2);
    ``sums_x`` / ``sums_y`` are :func:`tie_sums`-style triples of exact
    integers or arrays aligned with ``n``.  Each sum is rounded to float
    once and the float operations run in one fixed order, so a population
    scored alone or in a batch gets the same variance bit for bit.
    """
    t0x, t1x, t2x = (np.asarray(term).astype(float) for term in sums_x)
    t0y, t1y, t2y = (np.asarray(term).astype(float) for term in sums_y)
    variance = (n * (n - 1) * (2 * n + 5) - t0x - t0y) / 18.0
    # With n = 2 no tie group reaches 3, so both t1 sums are 0 and the
    # clamped denominator only keeps the zero term finite.
    variance = variance + t1x * t1y / (9.0 * n * (n - 1) * np.maximum(n - 2, 1))
    variance = variance + t2x * t2y / (2.0 * n * (n - 1))
    return np.asarray(variance).astype(float)


def null_variance_numerator_with_ties(
    n: int, ties_x: Sequence[int], ties_y: Sequence[int]
) -> float:
    """Eq. 6: tie-corrected variance of the numerator ``S`` under the null.

    ``ties_x``/``ties_y`` are the tie-group sizes (``u_i`` and ``v_i`` in the
    paper) of the two density vectors.  With no ties this reduces to Eq. 5
    multiplied by ``[n(n-1)/2]^2``.
    """
    if n < 2:
        raise EstimationError(f"at least two reference nodes are required, got {n}")
    for name, ties in (("ties_x", ties_x), ("ties_y", ties_y)):
        for size in ties:
            if size < 1:
                raise EstimationError(f"{name} contains a non-positive tie size {size}")
            if size > n:
                raise EstimationError(f"{name} contains a tie larger than n ({size} > {n})")
    bound = max(n, sum(ties_x), sum(ties_y))
    return float(variance_from_tie_sums(
        exact_integers(n, bound), tie_sums(ties_x, bound), tie_sums(ties_y, bound)
    ))


def tie_corrected_sigma(x: Sequence[float], y: Sequence[float]) -> float:
    """Standard deviation of the numerator ``S`` under the null hypothesis.

    Computes the tie groups of both vectors and plugs them into Eq. 6; with
    no ties this equals ``sqrt(Eq. 5) * n(n-1)/2``.  The z-score of Eq. 7 is
    then simply ``S / sigma_c``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise EstimationError("x and y must have the same length")
    n = int(x.size)
    variance = null_variance_numerator_with_ties(n, tie_group_sizes(x), tie_group_sizes(y))
    if variance < 0:
        raise EstimationError(f"negative null variance {variance}; ties are inconsistent")
    return float(np.sqrt(variance))


def degenerate_ties(x: Sequence[float], y: Sequence[float]) -> bool:
    """Whether either vector is entirely one tie (zero null variance).

    When every reference node sees the same density for one of the events,
    the Kendall statistic carries no information and the tie-corrected null
    variance is ~0; callers report a z-score of 0 in that case instead of
    dividing by zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return bool(np.unique(x).size <= 1 or np.unique(y).size <= 1)
