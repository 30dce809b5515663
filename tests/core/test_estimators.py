"""Tests for repro.core.estimators (Eq. 4, Eq. 7, Eq. 8)."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.core.estimators import (
    exact_tau,
    importance_weighted_estimate,
    plain_estimate,
    variance_upper_bound,
)
from repro.exceptions import EstimationError, InsufficientSampleError


class TestPlainEstimate:
    def test_perfect_positive(self):
        x = np.arange(10, dtype=float)
        components = plain_estimate(x, x + 1)
        assert components.estimate == 1.0
        assert components.z_score > 3.0
        assert not components.degenerate

    def test_perfect_negative(self):
        x = np.arange(10, dtype=float)
        components = plain_estimate(x, -x)
        assert components.estimate == -1.0
        assert components.z_score < -3.0

    def test_estimate_in_range(self, rng):
        for _ in range(5):
            components = plain_estimate(rng.random(30), rng.random(30))
            assert -1.0 <= components.estimate <= 1.0

    def test_z_score_matches_scipy_significance(self, rng):
        """Our z-based p-value should track scipy's kendalltau p-value."""
        x = rng.random(120)
        y = x + rng.normal(0, 0.5, size=120)
        components = plain_estimate(x, y)
        _, scipy_p = scipy_stats.kendalltau(x, y)
        our_p = 2 * scipy_stats.norm.sf(abs(components.z_score))
        # Both should call this clearly significant.
        assert our_p < 0.01 and scipy_p < 0.01

    def test_degenerate_when_constant(self):
        components = plain_estimate([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert components.degenerate
        assert components.z_score == 0.0

    def test_tie_groups_recorded(self):
        components = plain_estimate([1, 1, 2, 3], [1, 2, 2, 3])
        assert components.ties_a == (2,)
        assert components.ties_b == (2,)

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSampleError):
            plain_estimate([1.0], [2.0])

    def test_mismatched_lengths(self):
        with pytest.raises(EstimationError):
            plain_estimate([1.0, 2.0], [1.0])


class TestImportanceWeightedEstimate:
    def test_uniform_weights_match_plain(self, rng):
        x, y = rng.random(25), rng.random(25)
        plain = plain_estimate(x, y)
        weighted = importance_weighted_estimate(
            x, y, np.ones(25, dtype=int), np.full(25, 0.04)
        )
        assert weighted.estimate == pytest.approx(plain.estimate)
        assert weighted.z_score == pytest.approx(plain.z_score)

    def test_estimate_in_range(self, rng):
        x, y = rng.random(20), rng.random(20)
        frequencies = rng.integers(1, 4, size=20)
        probabilities = rng.random(20) * 0.5 + 0.01
        components = importance_weighted_estimate(x, y, frequencies, probabilities)
        assert -1.0 <= components.estimate <= 1.0

    def test_consistency_toward_exact_tau(self, rng):
        """With every node sampled and weights ∝ 1/p the estimator recovers τ."""
        x, y = rng.random(40), rng.random(40)
        probabilities = rng.random(40) * 0.5 + 0.05
        # Simulate a very large sample: frequencies proportional to probabilities.
        frequencies = np.maximum(1, np.round(probabilities * 10000).astype(int))
        components = importance_weighted_estimate(x, y, frequencies, probabilities)
        assert components.estimate == pytest.approx(exact_tau(x, y), abs=0.05)

    def test_zero_probability_rejected(self):
        with pytest.raises(EstimationError):
            importance_weighted_estimate([1, 2], [1, 2], [1, 1], [0.0, 0.5])

    def test_zero_frequency_rejected(self):
        with pytest.raises(EstimationError):
            importance_weighted_estimate([1, 2], [1, 2], [0, 1], [0.5, 0.5])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(EstimationError):
            importance_weighted_estimate([1, 2, 3], [1, 2, 3], [1, 1], [0.5, 0.5, 0.5])

    def test_degenerate_vector(self):
        components = importance_weighted_estimate(
            [1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [1, 1, 1], [0.3, 0.3, 0.3]
        )
        assert components.degenerate


class TestExactTauAndBound:
    def test_exact_tau_equals_plain_estimate(self, rng):
        x, y = rng.random(30), rng.random(30)
        assert exact_tau(x, y) == pytest.approx(plain_estimate(x, y).estimate)

    def test_variance_upper_bound_formula(self):
        assert variance_upper_bound(0.0, 100) == pytest.approx(0.02)
        assert variance_upper_bound(1.0, 100) == 0.0

    def test_variance_bound_validation(self):
        with pytest.raises(EstimationError):
            variance_upper_bound(2.0, 10)
        # Fewer than two reference nodes: the statistic (and hence the
        # bound) is undefined — a clear ValueError, not a garbage value.
        for bad_size in (0, 1, -3):
            with pytest.raises(ValueError, match="sample_size >= 2"):
                variance_upper_bound(0.5, bad_size)


class TestPairEstimateBatcher:
    def test_matches_plain_estimate(self):
        from repro.core.estimators import PairEstimateBatcher

        rng = np.random.default_rng(3)
        matrix = np.round(rng.random((4, 60)), 2)  # rounding induces ties
        matrix[:, :12] = 0.0  # columns outside every pair's population
        rows_a, rows_b = [0, 0, 2, 1], [1, 2, 3, 3]
        scores = PairEstimateBatcher(matrix).estimate_pairs(rows_a, rows_b)
        for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
            population = np.flatnonzero((matrix[row_a] != 0) | (matrix[row_b] != 0))
            direct = plain_estimate(matrix[row_a, population], matrix[row_b, population])
            assert scores.n[i] == direct.num_reference_nodes <= 48
            assert scores.estimate[i] == direct.estimate
            assert scores.z_score[i] == direct.z_score
            assert scores.degenerate[i] == direct.degenerate

    def test_rejects_bad_inputs(self):
        from repro.core.estimators import PairEstimateBatcher

        with pytest.raises(EstimationError):
            PairEstimateBatcher(np.zeros(5))
        # An empty population is the caller's to keep or raise.
        scores = PairEstimateBatcher(np.zeros((2, 5))).estimate_pairs([0], [1])
        assert (scores.n[0], scores.estimate[0], scores.degenerate[0]) == (0, 0.0, False)


class TestBatcherGrown:
    def test_grown_requires_column_prefix(self):
        from repro.core.estimators import PairEstimateBatcher

        rng = np.random.default_rng(9)
        matrix = rng.random((3, 20))
        batcher = PairEstimateBatcher(matrix)
        wider = np.hstack([matrix, rng.random((3, 10))])
        grown = batcher.grown(wider)
        assert grown.num_reference_nodes == 30
        # Same kernel arithmetic over the grown matrix.
        direct = PairEstimateBatcher(wider).estimate_pairs([0], [2])
        assert grown.estimate_pairs([0], [2]).estimate[0] == direct.estimate[0]

    def test_grown_rejects_non_prefix(self):
        from repro.core.estimators import PairEstimateBatcher

        rng = np.random.default_rng(10)
        matrix = rng.random((3, 20))
        batcher = PairEstimateBatcher(matrix)
        with pytest.raises(EstimationError, match="prefix"):
            batcher.grown(rng.random((3, 25)))
        with pytest.raises(EstimationError, match="prefix"):
            batcher.grown(matrix[:, :10])
        with pytest.raises(EstimationError, match="prefix"):
            batcher.grown(rng.random((4, 25)))
