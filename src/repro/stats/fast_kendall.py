"""Exact Kendall concordance kernels and the size-dispatched facade.

Every TESC estimate (Eq. 3/4/8) reduces to a concordance computation over a
pair of density vectors.  The historical implementation materialised ``n x n``
sign matrices — O(n²) time *and* memory per call — which caps the reference
sample size ``n`` (the single biggest lever on estimator variance) around the
paper's n=900.  This module provides exact sub-quadratic kernels:

* :func:`merge_concordance_sum` — Knight's merge-sort algorithm for the exact
  integer ``S = #concordant − #discordant``: sort by ``(x, y)``, count the
  strict inversions of the resulting ``y`` sequence (the discordant pairs)
  with an O(n log n) bottom-up merge, and correct for tie groups in ``x``,
  ``y`` and ``(x, y)`` jointly.  Matches the naive sign-matrix kernel
  **bit for bit** (both produce the same integer).
* :func:`table_concordance` — the same integer ``S`` from the ``Kx x Ky``
  contingency table of two rank-code vectors (one ``bincount`` and a 2-D
  prefix sum); its row and column sums are the Eq. 6 tie groups.  Density
  vectors are ratios of small integers, so ``Kx·Ky`` is often below ``n``.
* :func:`fenwick_weighted_concordance` — the Eq. 8 weighted numerator /
  denominator via a Fenwick tree (binary indexed tree): sort by ``x``,
  sweep x-tie groups in order and, for each node, read the total weight of
  already-inserted nodes with strictly smaller / strictly larger y-rank off
  the tree in O(log n).  Equal y-ranks contribute zero (ties), and an x-tie
  group is queried in full before any of its members is inserted, so pairs
  tied in ``x`` contribute zero as well.  Agrees with the naive kernel to
  float round-off (different summation order).
* the ``naive_*`` kernels — the original vectorised O(n²) implementations,
  kept verbatim as the oracle for property tests and as the facades' path
  below the dispatch crossover (BLAS-style vectorisation beats the merge
  bookkeeping for small ``n``).

:func:`concordance_sum` and :func:`weighted_concordance` are the facades the
general-purpose code routes through.  They pick the kernel from the input
size alone: the naive kernel below :data:`DEFAULT_CROSSOVER` observations,
the merge-sort / Fenwick kernel at or above it.
:class:`~repro.core.estimators.PairEstimateBatcher` scores its cached rank
codes with the table while ``Kx·Ky <= c·n`` (which keeps it O(n)) and with
the merge kernel otherwise.  No choice is a setting, because none changes
``S``; benchmarks and tests that need one path call the kernels directly.

Complexity summary (per pair estimate):

============================  ===============  ============
kernel                        time             memory
============================  ===============  ============
naive sign matrices           O(n²)            O(n²)
merge-sort (Knight)           O(n log n)       O(n)
contingency table             O(n + Kx·Ky)     O(Kx·Ky)
Fenwick weighted              O(n log n)       O(n)
============================  ===============  ============
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import EstimationError

#: Facade dispatch threshold: below this many observations the vectorised
#: O(n²) kernel's smaller constant wins; at or above it the O(n log n)
#: kernels win (measured crossover ~130–250 on CPython/NumPy — at n=900 the
#: merge kernel is already ~15x faster).
DEFAULT_CROSSOVER = 192


def dense_ranks(values: np.ndarray) -> np.ndarray:
    """Dense integer ranks (0-based) preserving order and ties exactly.

    Equal inputs get equal ranks and the rank order is the value order, so
    every sign ``sign(v_i - v_j)`` is preserved — the concordance structure
    of the ranked vector is identical to the original's.  O(n log n).
    """
    values = np.asarray(values)
    _, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(np.int64, copy=False).ravel()


def count_inversions(values: np.ndarray) -> int:
    """Number of strict inversions ``i < j with v_i > v_j``, O(n log n).

    Bottom-up merge counting, vectorised across runs: the array is padded to
    a power of two with a +inf sentinel and reshaped to ``(runs, 2·width)``
    rows per pass; a stable per-row argsort merges each run pair while a
    cumulative count of left-half elements yields, for every right-half
    element, how many left-half elements strictly exceed it.  The stable
    sort places equal left-half elements *before* right-half ones, so ties
    contribute no inversions.
    """
    values = np.asarray(values)
    n = values.size
    if n < 2:
        return 0
    size = 1 << (n - 1).bit_length()
    if np.issubdtype(values.dtype, np.integer):
        arr = np.empty(size, dtype=np.int64)
        arr[n:] = int(values.max()) + 1
    else:
        arr = np.empty(size, dtype=np.float64)
        arr[n:] = np.inf
    arr[:n] = values
    inversions = 0
    width = 1
    while width < size:
        rows = arr.reshape(-1, 2 * width)
        order = np.argsort(rows, axis=1, kind="stable")
        from_right = order >= width
        left_seen = np.cumsum(~from_right, axis=1)
        inversions += int(((width - left_seen) * from_right).sum())
        arr = np.take_along_axis(rows, order, axis=1).ravel()
        width *= 2
    return inversions


def _tied_pair_count(ranks: np.ndarray) -> int:
    """Number of unordered pairs sharing the same rank value."""
    counts = np.bincount(ranks)
    return int((counts * (counts - 1) // 2).sum())


def _check_pair(x, y) -> Tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim != 1 or y.ndim != 1:
        raise EstimationError("concordance kernels need 1-D vectors")
    if x.size != y.size:
        raise EstimationError("x and y must have the same length")
    if x.size < 2:
        raise EstimationError("at least two observations are required")
    return x, y


# -- naive O(n²) kernels (the oracle and the small-n path) --------------------


def naive_concordance_sum(x: np.ndarray, y: np.ndarray) -> int:
    """``S`` via the full sign-matrix product — O(n²) time and memory.

    This is the historical implementation, kept as the property-test oracle
    and as the facades' path below the dispatch crossover (it wins there
    thanks to its pure-vectorised inner loop).
    """
    x, y = _check_pair(x, y)
    return _naive_concordance_sum(x, y)


def _naive_concordance_sum(x: np.ndarray, y: np.ndarray) -> int:
    x = x.astype(float, copy=False)
    y = y.astype(float, copy=False)
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    total = float((dx * dy).sum())  # counts each unordered pair twice; diagonal is 0
    return int(round(total / 2.0))


def naive_weighted_concordance(
    x: np.ndarray, y: np.ndarray, weights: np.ndarray
) -> Tuple[float, float]:
    """Eq. 8 numerator/denominator via full sign and weight matrices (O(n²))."""
    x, y = _check_pair(x, y)
    return _naive_weighted_concordance(x, y, np.asarray(weights, dtype=float))


def _naive_weighted_concordance(
    x: np.ndarray, y: np.ndarray, weights: np.ndarray
) -> Tuple[float, float]:
    x = x.astype(float, copy=False)
    y = y.astype(float, copy=False)
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    weight_matrix = weights[:, None] * weights[None, :]
    concordance = dx * dy
    numerator = float((concordance * weight_matrix).sum() / 2.0)
    denominator = float((weight_matrix.sum() - np.sum(weights * weights)) / 2.0)
    return numerator, denominator


# -- the merge-sort kernel (Knight's algorithm) -------------------------------


def merge_concordance_sum(x: np.ndarray, y: np.ndarray) -> int:
    """Exact ``S = #concordant − #discordant`` in O(n log n) time, O(n) memory.

    Knight's algorithm with full tie awareness: with ``n0 = n(n-1)/2`` total
    pairs, ``tx``/``ty`` the pairs tied within ``x``/``y``, ``txy`` the pairs
    tied in both, and ``D`` the discordant count,

        ``C = n0 − tx − ty + txy − D``  and  ``S = C − D``.

    ``D`` is the number of strict inversions of the ``y`` sequence after
    sorting by ``(x, y)`` lexicographically: pairs tied in ``x`` are sorted
    by ascending ``y`` (no inversion), pairs tied in ``y`` are never strict
    inversions, so inversions are exactly the pairs with ``x_i < x_j`` and
    ``y_i > y_j``.  All integer arithmetic — bit-identical to
    :func:`naive_concordance_sum`.
    """
    x, y = _check_pair(x, y)
    concordant, discordant, _ = _concordance_counts(x, y)
    return concordant - discordant


def concordance_counts(x: np.ndarray, y: np.ndarray) -> Tuple[int, int, int]:
    """Exact ``(#concordant, #discordant, #tied)`` pair counts, O(n log n).

    The tie-aware decomposition behind :func:`merge_concordance_sum`,
    exposed separately for diagnostics (`repro.core.concordance`).
    """
    x, y = _check_pair(x, y)
    return _concordance_counts(x, y)


def _concordance_counts(x: np.ndarray, y: np.ndarray) -> Tuple[int, int, int]:
    n = int(x.size)
    ranks_x = dense_ranks(x)
    ranks_y = dense_ranks(y)
    order = np.lexsort((ranks_y, ranks_x))
    discordant = count_inversions(ranks_y[order])
    total_pairs = n * (n - 1) // 2
    tied_x = _tied_pair_count(ranks_x)
    tied_y = _tied_pair_count(ranks_y)
    # Joint key: ranks are < n, so the combined key fits int64 far below 2^63.
    joint = dense_ranks(ranks_x * np.int64(n) + ranks_y)
    tied_both = _tied_pair_count(joint)
    tied = tied_x + tied_y - tied_both
    concordant = total_pairs - tied - discordant
    return concordant, discordant, tied


# -- the contingency-table kernel ---------------------------------------------


def table_concordance(
    x_codes: np.ndarray, y_codes: np.ndarray, kx: int, ky: int
) -> Tuple[int, np.ndarray, np.ndarray]:
    """Exact ``S`` and both code counts in O(n + Kx·Ky) time, O(Kx·Ky) memory.

    ``x_codes`` / ``y_codes`` are order-preserving integer codes in
    ``[0, kx)`` / ``[0, ky)`` (not every code need occur).  With ``t`` the
    table of code pairs and ``B[i, j]`` the observations in rows ``< i`` and
    columns ``<= j``, ``S = Σ t[i, j] · (B[i, j-1] − (B[i, ky-1] − B[i, j]))``:
    each cell against the cells strictly below-left (concordant) and below-
    right (discordant); pairs sharing a row or column are ties.  Returns
    ``(S, row sums, column sums)``, the code counts of ``x`` and ``y``.
    Integer arithmetic, bit-identical to :func:`merge_concordance_sum`.

    >>> s, counts_x, counts_y = table_concordance(
    ...     np.array([0, 0, 1, 2]), np.array([1, 0, 1, 2]), 3, 3)
    >>> s, counts_x.tolist(), counts_y.tolist()
    (4, [2, 1, 1], [1, 2, 1])
    """
    table = np.bincount(x_codes * ky + y_codes, minlength=kx * ky).reshape(kx, ky)
    return int(table_concordance_sum(table)), table.sum(axis=1), table.sum(axis=0)


def table_concordance_sum(tables: np.ndarray) -> np.ndarray:
    """Exact ``S`` of each ``(..., kx, ky)`` contingency table (int64 array).

    The sum behind :func:`table_concordance`, for callers that already hold
    a table; leading axes batch several equally shaped tables (all-zero
    padding rows and columns add nothing to ``S``).
    """
    below = tables.cumsum(axis=-2)[..., :-1, :].cumsum(axis=-1)
    concordant = (tables[..., 1:, 1:] * below[..., :-1]).sum(axis=(-2, -1))
    discordant = (
        tables[..., 1:, :-1] * (below[..., -1:] - below[..., :-1])
    ).sum(axis=(-2, -1))
    return concordant - discordant


# -- the Fenwick-tree weighted kernel -----------------------------------------


def fenwick_weighted_concordance(
    x: np.ndarray, y: np.ndarray, weights: np.ndarray
) -> Tuple[float, float]:
    """Eq. 8 numerator/denominator in O(n log n) time, O(n) memory.

    Sweeps the observations in ascending ``x`` order, one x-tie group at a
    time.  A Fenwick tree over dense y-ranks accumulates the weights of the
    already-inserted (strictly smaller ``x``) observations; for each new
    observation the prefix sums at ``rank−1`` and ``rank`` split that weight
    mass into strictly-smaller-y (concordant), equal-y (tied, contributing
    zero) and strictly-larger-y (discordant).  Querying a whole x-tie group
    before inserting any of its members makes pairs tied in ``x`` contribute
    zero — the explicit tie handling the naive kernel gets from its sign
    matrices.

    The denominator uses the closed form ``((Σw)² − Σw²)/2``.  Both outputs
    agree with :func:`naive_weighted_concordance` up to summation order
    (≲1e-12 relative in practice).
    """
    x, y = _check_pair(x, y)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != x.shape:
        raise EstimationError("weights must match the observation vectors")
    return _fenwick_weighted_concordance(x, y, weights)


def _fenwick_weighted_concordance(
    x: np.ndarray, y: np.ndarray, weights: np.ndarray
) -> Tuple[float, float]:
    n = int(x.size)
    ranks_x = dense_ranks(x)
    ranks_y = dense_ranks(y) + 1  # 1-based for the tree
    num_ranks = int(ranks_y.max())
    order = np.lexsort((ranks_y, ranks_x))
    xs = ranks_x[order].tolist()
    ys = ranks_y[order].tolist()
    ws = weights[order].tolist()

    tree = [0.0] * (num_ranks + 1)
    inserted_total = 0.0
    numerator = 0.0
    start = 0
    while start < n:
        stop = start
        group_x = xs[start]
        # Query phase: the whole x-tie group reads the tree before any insert.
        while stop < n and xs[stop] == group_x:
            rank = ys[stop]
            below = 0.0  # total inserted weight with y-rank < rank
            index = rank - 1
            while index > 0:
                below += tree[index]
                index -= index & (-index)
            below_or_equal = 0.0  # ... with y-rank <= rank
            index = rank
            while index > 0:
                below_or_equal += tree[index]
                index -= index & (-index)
            above = inserted_total - below_or_equal
            numerator += ws[stop] * (below - above)
            stop += 1
        # Insert phase.
        while start < stop:
            index = ys[start]
            value = ws[start]
            while index <= num_ranks:
                tree[index] += value
                index += index & (-index)
            inserted_total += value
            start += 1

    weight_sum = float(weights.sum())
    denominator = (weight_sum * weight_sum - float(np.sum(weights * weights))) / 2.0
    return numerator, denominator


# -- the dispatch facades -----------------------------------------------------


def concordance_sum(x: np.ndarray, y: np.ndarray) -> int:
    """``S = #concordant − #discordant`` through the size-dispatched facade.

    The naive and merge-sort kernels return the same integer, so dispatch
    never changes a result — only its cost.
    """
    x, y = _check_pair(x, y)
    if x.size >= DEFAULT_CROSSOVER:
        concordant, discordant, _ = _concordance_counts(x, y)
        return concordant - discordant
    return _naive_concordance_sum(x, y)


def weighted_concordance(
    x: np.ndarray, y: np.ndarray, weights: np.ndarray
) -> Tuple[float, float]:
    """Eq. 8 weighted numerator/denominator through the dispatch facade.

    The two kernels agree to float round-off (summation order differs);
    exact integer agreement holds whenever the weights are integral.
    """
    x, y = _check_pair(x, y)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != x.shape:
        raise EstimationError("weights must match the observation vectors")
    if x.size >= DEFAULT_CROSSOVER:
        return _fenwick_weighted_concordance(x, y, weights)
    return _naive_weighted_concordance(x, y, weights)
