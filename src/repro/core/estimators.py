"""TESC estimators: the plain sampled statistic ``t`` and the
importance-weighted statistic ``t̃``.

Both estimators consume density vectors (and, for ``t̃``, per-node sampling
weights) and return an :class:`EstimateComponents` carrying the estimate, the
tie-corrected null standard deviation and the z-score of Eq. 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import EstimationError, InsufficientSampleError
from repro.stats.fast_kendall import dense_ranks, merge_concordance_sum, table_concordance
from repro.stats.kendall import pair_concordance_sum, weighted_pair_concordance
from repro.stats.ties import null_variance_numerator_with_ties, tie_group_sizes

#: ``c`` of the batcher's ``Kx·Ky <= c·n`` table-kernel rule.  On 2 cores the
#: table beats the merge kernel up to 32–64 cells per observation (n =
#: 200–4000): level-1 density pairs sit near 20, level-2 ones above 100.
TABLE_CELLS_PER_OBSERVATION = 32


@dataclass(frozen=True)
class EstimateComponents:
    """All the numbers produced when estimating TESC from a sample.

    Attributes
    ----------
    estimate:
        The sampled Kendall statistic — ``t(a, b)`` (Eq. 4) for the plain
        estimator or ``t̃(a, b)`` (Eq. 8) for the importance-weighted one.
    z_score:
        The standardised statistic of Eq. 7 (0.0 when the null variance is
        degenerate, i.e. one of the density vectors is a single tie).
    num_reference_nodes:
        Number of distinct reference nodes the estimate was computed from.
    concordance_sum:
        ``S`` — the (possibly weighted) numerator of the statistic.
    null_sigma:
        Tie-corrected standard deviation of the unweighted numerator under
        the null hypothesis (Eq. 6), used to standardise.
    ties_a / ties_b:
        Tie-group sizes of the two density vectors, as used in Eq. 6.
    degenerate:
        True when either density vector is constant so no inference is
        possible.
    """

    estimate: float
    z_score: float
    num_reference_nodes: int
    concordance_sum: float
    null_sigma: float
    ties_a: tuple
    ties_b: tuple
    degenerate: bool


def _validate_densities(densities_a: Sequence[float],
                        densities_b: Sequence[float]) -> tuple:
    a = np.asarray(densities_a, dtype=float)
    b = np.asarray(densities_b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise EstimationError("density vectors must be 1-D")
    if a.size != b.size:
        raise EstimationError("density vectors must have the same length")
    if a.size < 2:
        raise InsufficientSampleError(
            f"need at least 2 reference nodes to form a pair, got {a.size}"
        )
    return a, b


def _null_sigma(n: int, ties_a: List[int], ties_b: List[int]) -> Optional[float]:
    """Eq. 6 null sigma of ``S``; ``None`` when either vector is one tie."""
    if ties_a == [n] or ties_b == [n]:
        return None
    variance = null_variance_numerator_with_ties(n, ties_a, ties_b)
    if variance < 0:
        raise EstimationError(f"negative null variance {variance}; ties are inconsistent")
    return float(np.sqrt(variance))


def _plain_components(n: int, s, ties_a: List[int], ties_b: List[int]) -> EstimateComponents:
    """:class:`EstimateComponents` of the plain statistic with numerator ``s``."""
    sigma = _null_sigma(n, ties_a, ties_b)
    return EstimateComponents(
        estimate=s / (0.5 * n * (n - 1)),
        z_score=float(s / sigma) if sigma else 0.0,
        num_reference_nodes=n,
        concordance_sum=s,
        null_sigma=sigma or 0.0,
        ties_a=tuple(ties_a),
        ties_b=tuple(ties_b),
        degenerate=sigma is None,
    )


def plain_estimate(densities_a: Sequence[float],
                   densities_b: Sequence[float]) -> EstimateComponents:
    """The sampled Kendall statistic ``t(a, b)`` of Eq. 4 with its z-score.

    The z-score divides the numerator ``S`` by the tie-corrected null
    standard deviation of Eq. 6 (equivalently: ``t / sigma`` with both
    numerator and denominator scaled by ``n(n-1)/2``).
    """
    a, b = _validate_densities(densities_a, densities_b)
    s = float(pair_concordance_sum(a, b))
    return _plain_components(int(a.size), s, tie_group_sizes(a), tie_group_sizes(b))


def importance_weighted_estimate(
    densities_a: Sequence[float],
    densities_b: Sequence[float],
    frequencies: Sequence[int],
    probabilities: Sequence[float],
) -> EstimateComponents:
    """The importance-sampling estimator ``t̃(a, b)`` of Eq. 8 with a z-score.

    Parameters
    ----------
    densities_a, densities_b:
        Densities at the *distinct* sampled reference nodes.
    frequencies:
        ``w_i`` — how many times each node was drawn by the sampler.
    probabilities:
        ``p(r_i) = |V^h_{r_i} ∩ V_{a∪b}| / N_sum`` — each node's probability
        of being produced by one draw of the non-uniform sampler.

    Notes
    -----
    ``t̃`` is a consistent (though biased) estimator of ``τ``.  Following the
    paper, significance is assessed by using ``t̃`` as a surrogate for ``t``:
    the z-score standardises with the same tie-corrected null variance over
    the ``n`` distinct reference nodes.
    """
    a, b = _validate_densities(densities_a, densities_b)
    w = np.asarray(frequencies, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    if w.shape != a.shape or p.shape != a.shape:
        raise EstimationError("frequencies and probabilities must match the densities")
    if np.any(w <= 0):
        raise EstimationError("every sampled node must have frequency >= 1")
    if np.any(p <= 0) or np.any(p > 1):
        raise EstimationError("probabilities must lie in (0, 1]")

    node_weights = w / p
    numerator, denominator = weighted_pair_concordance(a, b, node_weights)
    if denominator <= 0:
        raise EstimationError("the weighted pair denominator is not positive")
    estimate = numerator / denominator

    n = int(a.size)
    ties_a, ties_b = tie_group_sizes(a), tie_group_sizes(b)
    sigma_numerator = _null_sigma(n, ties_a, ties_b)
    # Use t~ as a surrogate for t: z = t~ / sigma where sigma is the Eq.5/6
    # standard deviation of the *normalised* statistic over n reference nodes
    # (z = 0 when the pair is degenerate).
    sigma_t = sigma_numerator / (0.5 * n * (n - 1)) if sigma_numerator else 0.0
    z_score = estimate / sigma_t if sigma_t > 0 else 0.0
    return EstimateComponents(
        estimate=float(estimate),
        z_score=float(z_score),
        num_reference_nodes=n,
        concordance_sum=float(numerator),
        null_sigma=sigma_numerator or 0.0,
        ties_a=tuple(ties_a),
        ties_b=tuple(ties_b),
        degenerate=sigma_numerator is None,
    )


class PairEstimateBatcher:
    """Plain estimates for many event pairs sharing density-matrix columns.

    The per-event state worth amortising across pairs is the *order/tie
    structure* of that event's density column.  When ranking many pairs over
    a shared reference sample (:class:`~repro.core.batch.BatchTescEngine`),
    each event's density row is rank-encoded once (one ``O(n log n)``
    argsort, ``O(n)`` memory) into dense codes ``0 .. K-1`` and the code
    vector is reused by every pair the event participates in: restricting
    codes to a pair's population is an ``O(n)`` gather.  This replaces the
    historical per-event ``O(n²)`` sign-matrix cache — at n=900 that cache
    cost ~0.8 MB per event; at n=100k it would have cost ~10 GB per event,
    while a code vector stays at 8n bytes.  A pair is scored by the
    contingency-table kernel while ``Kx·Ky <= c·n`` (``Kx``/``Ky`` the rows'
    distinct-value counts, ``c`` = :data:`TABLE_CELLS_PER_OBSERVATION`) and
    by the merge kernel otherwise; the Eq. 6 tie groups are the restricted
    code counts either way.

    Parameters
    ----------
    density_matrix:
        ``(num_events, n)`` float matrix of densities over the shared
        reference sample (``DensityMatrix.densities``).

    Notes
    -----
    Results are numerically identical to calling :func:`plain_estimate` on
    the corresponding pair of rows (restricted to ``columns`` when given):
    rank encoding preserves every ``sign(x_i - x_j)`` exactly, all kernels
    return the same integer ``S``, and code order is value order.
    """

    def __init__(self, density_matrix: np.ndarray) -> None:
        matrix = np.asarray(density_matrix, dtype=float)
        if matrix.ndim != 2:
            raise EstimationError(
                f"density_matrix must be 2-D (events x reference nodes), got shape "
                f"{matrix.shape}"
            )
        self._matrix = matrix
        self._ranks: Dict[int, np.ndarray] = {}
        self._num_codes: Dict[int, int] = {}

    @property
    def num_reference_nodes(self) -> int:
        """Number of shared reference-sample columns the batcher ranks over."""
        return int(self._matrix.shape[1])

    def grown(self, density_matrix: np.ndarray) -> "PairEstimateBatcher":
        """A fresh batcher over a column-grown version of this matrix.

        The progressive top-k engine appends reference-node columns between
        rounds; rank vectors encode the order structure of *all* columns, so
        they cannot be patched in place — every cached vector goes stale the
        moment a column arrives.  This constructor makes the round hand-off
        explicit: it validates that the old matrix is a column prefix of the
        new one (same event rows, old columns bit-identical), then returns a
        new batcher whose rank vectors will be re-encoded lazily for exactly
        the rows the surviving pairs still touch.
        """
        matrix = np.asarray(density_matrix, dtype=float)
        old = self._matrix
        if (
            matrix.ndim != 2
            or matrix.shape[0] != old.shape[0]
            or matrix.shape[1] < old.shape[1]
            or not np.array_equal(matrix[:, : old.shape[1]], old)
        ):
            raise EstimationError(
                "grown() needs a matrix whose column prefix is this batcher's "
                f"matrix; got shape {matrix.shape} over {old.shape}"
            )
        return PairEstimateBatcher(matrix)

    def _codes(self, row: int) -> Tuple[np.ndarray, int]:
        """Dense rank codes of one row and their count, cached (O(n))."""
        codes = self._ranks.get(row)
        if codes is None:
            codes = self._ranks[row] = dense_ranks(self._matrix[row])
            self._num_codes[row] = int(codes.max(initial=-1)) + 1
        return codes, self._num_codes[row]

    def _score(
        self, row_a: int, row_b: int, columns: Optional[np.ndarray]
    ) -> Tuple[int, int, np.ndarray, np.ndarray]:
        """``(n, S, code counts of a, code counts of b)`` over ``columns``."""
        a, kx = self._codes(row_a)
        b, ky = self._codes(row_b)
        if columns is not None:
            columns = np.asarray(columns, dtype=np.int64)
            a = a[columns]
            b = b[columns]
        n = int(a.size)
        if n < 2:
            raise InsufficientSampleError(
                f"need at least 2 reference nodes to form a pair, got {n}"
            )
        if kx * ky <= TABLE_CELLS_PER_OBSERVATION * n:
            return (n, *table_concordance(a, b, kx, ky))
        s = merge_concordance_sum(a, b)
        return n, s, np.bincount(a, minlength=kx), np.bincount(b, minlength=ky)

    def screen_pair(
        self, row_a: int, row_b: int, columns: Optional[np.ndarray] = None
    ) -> Tuple[float, int]:
        """Just ``(estimate, num_reference_nodes)`` for a pair — no inference.

        The progressive top-k engine's pruning rounds only need each pair's
        point estimate and restricted sample size to form confidence bounds;
        the null sigma and z-score of :meth:`estimate_pair` are skipped here
        (they are computed once, on the full-budget sample, for the pairs
        that survive).  The returned estimate is the exact same number
        :meth:`estimate_pair` would report.
        """
        n, s, _, _ = self._score(row_a, row_b, columns)
        return s / (0.5 * n * (n - 1)), n

    def estimate_pair(
        self, row_a: int, row_b: int, columns: Optional[np.ndarray] = None
    ) -> EstimateComponents:
        """:func:`plain_estimate` for rows ``(row_a, row_b)``.

        ``columns`` optionally restricts the estimate to a subset of the
        shared reference sample (the pair's own reference population); the
        cached code vectors are gathered rather than recomputed (restricted
        codes are no longer dense, but order and ties — all the concordance
        kernels consume — are preserved exactly).
        """
        n, s, counts_a, counts_b = self._score(row_a, row_b, columns)
        return _plain_components(
            n, s, counts_a[counts_a >= 2].tolist(), counts_b[counts_b >= 2].tolist()
        )


def exact_tau(densities_a: Sequence[float],
              densities_b: Sequence[float]) -> float:
    """``τ(a, b)`` of Eq. 3 computed over *all* reference nodes.

    Identical arithmetic to :func:`plain_estimate` but named separately so
    call sites make clear they are using the exhaustive population statistic
    rather than a sample estimate.
    """
    a, b = _validate_densities(densities_a, densities_b)
    n = int(a.size)
    return float(pair_concordance_sum(a, b)) / (0.5 * n * (n - 1))


def variance_upper_bound(tau: float, sample_size: int) -> float:
    """The paper's bound ``Var(t) <= 2 (1 - τ²) / n`` (Section 3.1).

    Used to argue that a moderate ``n`` suffices regardless of how large the
    reference population ``N`` is — and by the progressive top-k engine to
    derive per-round confidence half-widths.  ``sample_size`` must be at
    least 2: the statistic ``t`` is undefined on fewer than two reference
    nodes (no pairs exist), so the formula would return a meaningless value
    for ``n = 1`` — the progressive engine's tiny first rounds hit exactly
    this edge, hence the hard validation.
    """
    if sample_size < 2:
        raise ValueError(
            "variance_upper_bound needs sample_size >= 2 (the Kendall "
            f"statistic is undefined on fewer than two reference nodes), "
            f"got {sample_size}"
        )
    if not -1.0 <= tau <= 1.0:
        raise EstimationError(f"tau must lie in [-1, 1], got {tau}")
    return 2.0 * (1.0 - tau * tau) / sample_size
