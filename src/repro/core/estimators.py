"""TESC estimators: the plain sampled statistic ``t`` and the
importance-weighted statistic ``t̃``.

Both estimators consume density vectors (and, for ``t̃``, per-node sampling
weights) and return an :class:`EstimateComponents` carrying the estimate, the
tie-corrected null standard deviation and the z-score of Eq. 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import EstimationError, InsufficientSampleError
from repro.stats.fast_kendall import merge_concordance_sum, table_concordance_sum
from repro.stats.kendall import pair_concordance_sum, weighted_pair_concordance
from repro.stats.ties import (
    exact_integers,
    null_variance_numerator_with_ties,
    tie_group_sizes,
    tie_polynomials,
    tie_sums,
    variance_from_tie_sums,
)

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


def plain_estimate(densities_a: Sequence[float],
                   densities_b: Sequence[float]) -> EstimateComponents:
    """The sampled Kendall statistic ``t(a, b)`` of Eq. 4 with its z-score.

    The z-score divides the numerator ``S`` by the tie-corrected null
    standard deviation of Eq. 6 (equivalently: ``t / sigma`` with both
    numerator and denominator scaled by ``n(n-1)/2``).
    """
    a, b = _validate_densities(densities_a, densities_b)
    n = int(a.size)
    s = float(pair_concordance_sum(a, b))
    ties_a, ties_b = tie_group_sizes(a), tie_group_sizes(b)
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


class _Row(NamedTuple):
    """Whole-row state of one density row, shared by every pair using it."""

    codes: np.ndarray  # dense rank codes: a row of the batcher's code matrix
    counts: np.ndarray  # code counts; code 0 is density 0 when the row has zeros
    support: Optional[np.ndarray]  # nonzero columns; None when there is no 0
    tie_sums: Tuple[int, int, int]  # Eq. 6 sums of ``counts``


class PopulationScores(NamedTuple):
    """Per-pair arrays from :meth:`PairEstimateBatcher.estimate_pairs`.

    Pairs with ``n < 2`` carry estimate and z-score 0 and are not degenerate;
    the caller decides whether they are kept or raised.
    """

    n: np.ndarray
    estimate: np.ndarray
    z_score: np.ndarray
    degenerate: np.ndarray


class PairEstimateBatcher:
    """Plain estimates for many event pairs sharing density-matrix columns.

    Event rows are encoded lazily, every row a call needs in one pass
    (:meth:`_encode`), into dense rank codes ``0 .. K-1`` (8N bytes a row)
    and whole-row state (:class:`_Row`): code counts, support, and the three
    Eq. 6 tie sums of those counts in exact integers.  A pair's reference
    population is every column where either row is nonzero, so the pair's
    statistics differ from whole-row ones only through ``z``, the columns
    where *both* rows are 0 (density 0 ⇔ count 0, and 0 is code 0 of any
    row that has it).  :meth:`estimate_pairs` scores a whole pair list in
    one pass from that:

    * ``z`` for every pair from one small matmul of the rows' absent masks,
      and ``n = N − z``;
    * restricted code counts equal whole-row counts except at code 0
      (``c0 − z``), so the tie sums, the degeneracy flag and σ come out as
      arrays through :func:`~repro.stats.ties.variance_from_tie_sums`, the
      Eq. 6 :func:`~repro.stats.ties.null_variance_numerator_with_ties` uses;
    * ``S`` from the whole-row contingency table with ``z`` taken out of its
      (0, 0) cell while ``Kx·Ky <= c·n`` (``c`` =
      :data:`TABLE_CELLS_PER_OBSERVATION`), and from the merge kernel over
      the population's columns otherwise.  Table pairs are scored in groups
      that share their sparser row (see :func:`_group_tables_sum`).

    Full ranks and top-k screening rounds alike score through this pass.

    Parameters
    ----------
    density_matrix:
        ``(num_events, N)`` float matrix of densities over the shared
        reference sample (``DensityMatrix.densities``).

    Notes
    -----
    Results are numerically identical to calling :func:`plain_estimate` on
    the corresponding pair of rows restricted to the pair's population
    (``DensityMatrix.pair_rows``): rank encoding preserves every
    ``sign(x_i - x_j)`` exactly, all kernels return the same integer ``S``,
    and code order is value order.
    """

    def __init__(self, density_matrix: np.ndarray) -> None:
        matrix = np.asarray(density_matrix, dtype=float)
        if matrix.ndim != 2:
            raise EstimationError(
                f"density_matrix must be 2-D (events x reference nodes), got shape "
                f"{matrix.shape}"
            )
        self._matrix = matrix
        self._rows: Dict[int, _Row] = {}
        # Allocated zeroed on the first encode; only encoded rows are written.
        self._codes: Optional[np.ndarray] = None

    @property
    def num_reference_nodes(self) -> int:
        """Number of shared reference-sample columns the batcher ranks over."""
        return int(self._matrix.shape[1])

    def _encode(self, rows: np.ndarray, values: np.ndarray, present: np.ndarray) -> None:
        """Encode ``rows`` (not yet encoded): ``values`` are their densities
        and ``present`` marks the nonzero ones.

        One lexsort orders every nonzero entry by (row, value), and a new
        code starts wherever the row or the value changes.  A row with zeros
        shifts its codes up by one so that 0 is code 0: per row this is
        exactly :func:`~repro.stats.fast_kendall.dense_ranks` of the
        (nonnegative) row.
        """
        total = values.shape[1]
        local, columns = np.divmod(np.flatnonzero(present), total)
        entries = values[local, columns]
        order = np.lexsort((entries, local))
        entry_rows, entry_values = local[order], entries[order]
        starts = np.ones(order.size, dtype=bool)
        starts[1:] = (entry_rows[1:] != entry_rows[:-1]) | (
            entry_values[1:] != entry_values[:-1]
        )
        nonzeros = np.bincount(local, minlength=rows.size)
        has_zero = nonzeros < total
        groups = np.bincount(entry_rows[starts], minlength=rows.size)
        codes = (
            np.cumsum(starts) - 1
            - (np.cumsum(groups) - groups)[entry_rows]
            + has_zero[entry_rows]
        )
        if self._codes is None:
            self._codes = np.zeros(self._matrix.shape, dtype=np.int64)
        self._codes[rows[entry_rows], columns[order]] = codes
        num_codes = groups + has_zero
        counts = np.zeros((rows.size, max(int(num_codes.max()), 1)), dtype=np.int64)
        counts[has_zero, 0] = total - nonzeros[has_zero]
        counts[entry_rows[starts], codes[starts]] = np.diff(
            np.append(np.flatnonzero(starts), order.size)
        )
        sums = [
            term.sum(axis=1)
            for term in tie_polynomials(exact_integers(counts, total))
        ]
        supports = np.split(columns, np.cumsum(nonzeros)[:-1])
        for j, row in enumerate(rows.tolist()):
            self._rows[row] = _Row(
                self._codes[row],
                counts[j, : num_codes[j]],
                supports[j] if has_zero[j] else None,
                tuple(int(term[j]) for term in sums),
            )

    def estimate_pairs(
        self, rows_a: Sequence[int], rows_b: Sequence[int]
    ) -> PopulationScores:
        """Every pair ``(rows_a[i], rows_b[i])`` over its own population.

        Each pair's numbers equal :func:`plain_estimate` over its population
        columns (``DensityMatrix.pair_rows``), bit for bit.  Needs
        nonnegative rows, so that density 0 is each row's code 0.
        """
        rows_a = np.asarray(rows_a, dtype=np.int64)
        rows_b = np.asarray(rows_b, dtype=np.int64)
        total = self.num_reference_nodes
        count = rows_a.size
        rows, local = np.unique(np.concatenate([rows_a, rows_b]), return_inverse=True)
        ia, ib = local[:count], local[count:]
        values = self._matrix[rows]
        if (values < 0).any():
            raise EstimationError("the population pass needs nonnegative densities")
        absent = values == 0
        fresh = np.array([row not in self._rows for row in rows.tolist()], dtype=bool)
        if fresh.all():
            self._encode(rows, values, ~absent)
        elif fresh.any():
            self._encode(rows[fresh], values[fresh], ~absent[fresh])
        mask = absent.astype(float)
        # Integer counts below 2^53: the float matmul is exact.
        both_absent = (mask @ mask.T).astype(np.int64)
        z = both_absent[ia, ib]
        n = total - z
        sufficient = n >= 2

        states = [self._rows[row] for row in rows.tolist()]
        num_codes = np.array([state.counts.size for state in states], dtype=np.int64)
        row_sums = exact_integers([state.tie_sums for state in states], total)
        row_sums = row_sums.reshape(len(states), 3)
        zeros = np.diagonal(both_absent)  # c0: each row's count at code 0

        def restricted(side: np.ndarray):
            """Tie sums and distinct-code count of one side over the populations."""
            c0 = zeros[side]
            before, after = (
                tie_polynomials(exact_integers(c, total)) for c in (c0, c0 - z)
            )
            sums = tuple(row_sums[side, k] - before[k] + after[k] for k in range(3))
            return sums, num_codes[side] - ((c0 > 0) & (c0 == z))

        sums_a, distinct_a = restricted(ia)
        sums_b, distinct_b = restricted(ib)
        degenerate = sufficient & ((distinct_a <= 1) | (distinct_b <= 1))
        scored = np.flatnonzero(sufficient & ~degenerate)
        variance = variance_from_tie_sums(
            exact_integers(n[scored], total),
            tuple(term[scored] for term in sums_a),
            tuple(term[scored] for term in sums_b),
        )
        if np.any(variance < 0):
            raise EstimationError(
                f"negative null variance {variance[variance < 0][0]}; ties are inconsistent"
            )
        sigma = np.zeros(count)
        sigma[scored] = np.sqrt(variance)

        s = np.zeros(count, dtype=np.int64)
        tabled = sufficient & (
            num_codes[ia] * num_codes[ib] <= TABLE_CELLS_PER_OBSERVATION * n
        )
        for i in np.flatnonzero(sufficient & ~tabled).tolist():
            population = np.flatnonzero(~(absent[ia[i]] & absent[ib[i]]))
            s[i] = merge_concordance_sum(
                states[ia[i]].codes[population], states[ib[i]].codes[population]
            )
        pairs = np.flatnonzero(tabled)
        if pairs.size:
            s[pairs] = self._tables_sum(
                rows, states, num_codes, ia[pairs], ib[pairs], z[pairs], zeros
            )

        estimate = np.zeros(count)
        z_score = np.zeros(count)
        estimate[sufficient] = s[sufficient] / (0.5 * n[sufficient] * (n[sufficient] - 1))
        nonzero = sigma != 0
        z_score[nonzero] = s[nonzero] / sigma[nonzero]
        return PopulationScores(n, estimate, z_score, degenerate)

    def _tables_sum(
        self,
        rows: np.ndarray,
        states: List[_Row],
        num_codes: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        z: np.ndarray,
        zeros: np.ndarray,
    ) -> np.ndarray:
        """``S`` of table-kernel pairs ``(xs[i], ys[i])`` (indices into
        ``rows``, whose states and code counts ``states`` and ``num_codes``
        hold).

        ``S`` is symmetric, so each pair is tabulated over its sparser row's
        support.  Pairs sharing that row form a group, sorted by the
        partner's code count so that little of a table is padding, and a
        group is scored in chunks of :func:`_group_tables_sum` calls whose
        padded cells and gathered codes each stay within
        :data:`_CHUNK_CELLS` (unless one pair alone is larger).
        """
        swap = zeros[ys] > zeros[xs]
        xs, ys = np.where(swap, ys, xs), np.where(swap, xs, ys)
        order = np.lexsort((num_codes[ys], xs))
        xs, ys, z = xs[order], ys[order], z[order]
        fill = np.zeros((len(states), int(num_codes.max())), dtype=np.int64)
        for j, state in enumerate(states):
            fill[j, : state.counts.size] = state.counts
        partner_sizes = num_codes[ys].tolist()
        s = np.empty(xs.size, dtype=np.int64)
        bounds = (np.flatnonzero(np.diff(xs)) + 1).tolist()
        for lo, hi in zip([0, *bounds], [*bounds, xs.size]):
            x = states[xs[lo]]
            kx = x.counts.size
            x_codes = x.codes
            if x.support is not None:
                x_codes = x_codes[x.support]
            begin = lo
            while begin < hi:
                # Partners ascend in K, so the chunk's last one sets its width.
                end = begin + 1
                while end < hi and (end + 1 - begin) * max(
                    kx * partner_sizes[end], x_codes.size
                ) <= _CHUNK_CELLS:
                    end += 1
                ky = partner_sizes[end - 1]
                partners = rows[ys[begin:end]]
                codes = (
                    self._codes[partners] if x.support is None
                    else self._codes[partners[:, None], x.support]
                )
                s[begin:end] = _group_tables_sum(
                    x_codes, codes, (kx, ky),
                    None if x.support is None else fill[ys[begin:end], :ky],
                    z[begin:end],
                )
                begin = end
        result = np.empty_like(s)
        result[order] = s
        return result

    # benchmarks/ledger/traced_serve.py wraps this name at startup; nothing calls it.
    screen_pair = estimate_pairs


#: Bound on one :func:`_group_tables_sum` call, counted twice: in padded
#: table cells and in gathered codes (int64 each, so ~512 KB apiece), unless
#: one pair alone is larger.
_CHUNK_CELLS = 1 << 16


def _group_tables_sum(
    x_codes: np.ndarray,
    partner_codes: np.ndarray,
    shape: Tuple[int, int],
    fill: Optional[np.ndarray],
    z: np.ndarray,
) -> np.ndarray:
    """``S`` of one row ``x`` paired with each of several partners.

    ``x_codes`` are ``x``'s codes over its support (every column when ``x``
    has no 0) and ``partner_codes[j]`` partner ``j``'s codes over the same
    columns.  One bincount builds every partner's ``shape = (Kx, Ky)``
    table (``Ky`` the widest partner's, zero-padded).  When ``x`` has
    zeros, ``fill[j]`` is partner ``j``'s whole-row code counts: the
    columns where ``x`` is 0 are those minus what the support saw, filled
    into row 0.  The ``z[j]`` columns where both are 0 leave cell
    ``(0, 0)``, and one
    :func:`~repro.stats.fast_kendall.table_concordance_sum` scores them all.
    """
    kx, ky = shape
    partners = partner_codes.shape[0]
    keys = (
        (np.arange(partners, dtype=np.int64) * (kx * ky))[:, None]
        + x_codes * ky
        + partner_codes
    )
    tables = np.bincount(
        keys.ravel(), minlength=partners * kx * ky
    ).reshape(partners, kx, ky)
    if fill is not None:
        tables[:, 0] = fill - tables.sum(axis=1)
    tables[:, 0, 0] -= z
    return table_concordance_sum(tables)


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
    reference population ``N`` is.  ``sample_size`` must be at least 2: the
    statistic ``t`` is undefined on fewer than two reference nodes (no pairs
    exist), so the formula would return a meaningless value for ``n = 1``.
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
