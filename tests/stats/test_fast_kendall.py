"""Property tests pitting the O(n log n) kernels against the O(n²) oracle.

The contract under test (ISSUE 4 acceptance): the merge-sort kernel matches
the naive sign-matrix kernel as an *exact integer* on arbitrary inputs —
tie-heavy, constant, duplicated — and the Fenwick weighted kernel matches the
naive weighted kernel to float round-off, including zero and duplicate
importance weights.
"""

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.stats.fast_kendall import (
    DEFAULT_CROSSOVER,
    concordance_counts,
    concordance_sum,
    count_inversions,
    dense_ranks,
    fenwick_weighted_concordance,
    merge_concordance_sum,
    naive_concordance_sum,
    naive_weighted_concordance,
    weighted_concordance,
)
from repro.stats import fast_kendall
from repro.stats.kendall import (
    kendall_tau_a,
    kendall_tau_b,
    pair_concordance_sum,
    weighted_pair_concordance,
)


def brute_force_counts(x, y):
    concordant = discordant = tied = 0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            product = (x[i] - x[j]) * (y[i] - y[j])
            if product > 0:
                concordant += 1
            elif product < 0:
                discordant += 1
            else:
                tied += 1
    return concordant, discordant, tied


def random_vector_pairs(rng, sizes, trials_per_size=6):
    """Adversarial vector generator: heavy ties, constants, duplicates."""
    for n in sizes:
        for trial in range(trials_per_size):
            kind = trial % 6
            if kind == 0:  # continuous, tie-free
                yield rng.random(n), rng.random(n)
            elif kind == 1:  # heavy ties in both
                yield (
                    rng.integers(0, 3, n).astype(float),
                    rng.integers(0, 3, n).astype(float),
                )
            elif kind == 2:  # one constant vector
                yield np.full(n, 7.0), rng.integers(0, 4, n).astype(float)
            elif kind == 3:  # both constant
                yield np.zeros(n), np.zeros(n)
            elif kind == 4:  # binary vs many-valued
                yield (
                    rng.integers(0, 2, n).astype(float),
                    rng.integers(0, max(2, n), n).astype(float),
                )
            else:  # sorted with duplicated blocks (joint-tie stress)
                base = np.sort(rng.integers(0, max(2, n // 2), n)).astype(float)
                yield base, base.copy()


SIZES = (2, 3, 5, 17, 64, DEFAULT_CROSSOVER - 1, DEFAULT_CROSSOVER, 300)


class TestMergeKernel:
    def test_exact_integer_match_with_naive(self, rng):
        for x, y in random_vector_pairs(rng, SIZES):
            fast = merge_concordance_sum(x, y)
            naive = naive_concordance_sum(x, y)
            assert isinstance(fast, int)
            assert fast == naive

    def test_matches_brute_force(self, rng):
        for x, y in random_vector_pairs(rng, (2, 5, 11, 24)):
            c, d, _ = brute_force_counts(x, y)
            assert merge_concordance_sum(x, y) == c - d

    def test_perfect_orders(self):
        x = np.arange(10, dtype=float)
        assert merge_concordance_sum(x, x) == 45
        assert merge_concordance_sum(x, -x) == -45

    def test_counts_match_brute_force(self, rng):
        for x, y in random_vector_pairs(rng, (2, 4, 9, 30)):
            assert concordance_counts(x, y) == brute_force_counts(x, y)

    def test_counts_partition_all_pairs(self, rng):
        for x, y in random_vector_pairs(rng, (50,)):
            c, d, t = concordance_counts(x, y)
            assert c + d + t == 50 * 49 // 2


class TestFenwickKernel:
    def test_matches_naive_with_random_weights(self, rng):
        for x, y in random_vector_pairs(rng, SIZES):
            weights = rng.random(x.size) * 10
            fast_num, fast_den = fenwick_weighted_concordance(x, y, weights)
            naive_num, naive_den = naive_weighted_concordance(x, y, weights)
            scale = max(1.0, abs(naive_den))
            assert fast_num == pytest.approx(naive_num, rel=1e-9, abs=1e-9 * scale)
            assert fast_den == pytest.approx(naive_den, rel=1e-9, abs=1e-9 * scale)

    def test_zero_and_duplicate_weights(self, rng):
        for x, y in random_vector_pairs(rng, (5, 40, 200)):
            weights = rng.choice([0.0, 0.0, 1.0, 2.5, 2.5], size=x.size)
            fast_num, fast_den = fenwick_weighted_concordance(x, y, weights)
            naive_num, naive_den = naive_weighted_concordance(x, y, weights)
            scale = max(1.0, abs(naive_den))
            assert fast_num == pytest.approx(naive_num, rel=1e-9, abs=1e-9 * scale)
            assert fast_den == pytest.approx(naive_den, rel=1e-9, abs=1e-9 * scale)

    def test_integer_weights_are_exact(self, rng):
        """With integral weights every product is exact in float64, so the
        two kernels must agree exactly, not just to round-off."""
        for x, y in random_vector_pairs(rng, (30, 120)):
            weights = rng.integers(0, 5, size=x.size).astype(float)
            assert fenwick_weighted_concordance(x, y, weights) == (
                naive_weighted_concordance(x, y, weights)
            )

    def test_unit_weights_reduce_to_plain_s(self, rng):
        x, y = rng.random(150), rng.random(150)
        numerator, denominator = fenwick_weighted_concordance(x, y, np.ones(150))
        assert numerator == pytest.approx(merge_concordance_sum(x, y))
        assert denominator == pytest.approx(150 * 149 / 2)


class TestInversionsAndRanks:
    def test_count_inversions_brute_force(self, rng):
        for _ in range(20):
            values = rng.integers(0, 6, size=int(rng.integers(2, 40)))
            expected = sum(
                1
                for i in range(values.size)
                for j in range(i + 1, values.size)
                if values[i] > values[j]
            )
            assert count_inversions(values) == expected

    def test_count_inversions_edge_cases(self):
        assert count_inversions(np.array([1])) == 0
        assert count_inversions(np.array([], dtype=np.int64)) == 0
        assert count_inversions(np.array([3, 2, 1])) == 3
        assert count_inversions(np.array([2.5, 2.5, 2.5])) == 0

    def test_dense_ranks_preserve_order_and_ties(self, rng):
        values = rng.choice([0.1, 0.2, 0.2, 5.0, -3.0], size=30)
        ranks = dense_ranks(values)
        sign_values = np.sign(values[:, None] - values[None, :])
        sign_ranks = np.sign(ranks[:, None] - ranks[None, :])
        assert np.array_equal(sign_values, sign_ranks)


class TestDispatchFacade:
    def test_dispatch_switches_at_crossover(self, rng, monkeypatch):
        """The facades run the naive kernels below DEFAULT_CROSSOVER and the
        merge-sort / Fenwick kernels from DEFAULT_CROSSOVER on."""
        calls = []

        def spy(name):
            kernel = getattr(fast_kendall, name)

            def recorded(*args):
                calls.append(name)
                return kernel(*args)

            monkeypatch.setattr(fast_kendall, name, recorded)

        for name in (
            "_naive_concordance_sum", "_concordance_counts",
            "_naive_weighted_concordance", "_fenwick_weighted_concordance",
        ):
            spy(name)
        for n, plain, weighted in (
            (DEFAULT_CROSSOVER - 1,
             "_naive_concordance_sum", "_naive_weighted_concordance"),
            (DEFAULT_CROSSOVER,
             "_concordance_counts", "_fenwick_weighted_concordance"),
        ):
            x, y, weights = rng.random(n), rng.random(n), rng.random(n)
            calls.clear()
            concordance_sum(x, y)
            assert calls == [plain]
            calls.clear()
            weighted_concordance(x, y, weights)
            assert calls == [weighted]

    def test_unknown_kernel_rejected(self):
        """The facades take no kernel argument: the kernel is not a setting."""
        with pytest.raises(TypeError):
            concordance_sum([1.0, 2.0], [1.0, 2.0], kernel="naive")
        with pytest.raises(TypeError):
            pair_concordance_sum([1.0, 2.0], [1.0, 2.0], kernel="fast")

    def test_facades_agree_across_kernels(self, rng):
        x = rng.integers(0, 4, 250).astype(float)
        y = rng.integers(0, 4, 250).astype(float)
        weights = rng.random(250)
        for n in (DEFAULT_CROSSOVER - 1, DEFAULT_CROSSOVER, 250):
            expected = naive_concordance_sum(x[:n], y[:n])
            assert merge_concordance_sum(x[:n], y[:n]) == expected
            assert concordance_sum(x[:n], y[:n]) == expected
            assert pair_concordance_sum(x[:n], y[:n]) == expected
        naive_num, naive_den = naive_weighted_concordance(x, y, weights)
        fast_num, fast_den = weighted_concordance(x, y, weights)
        assert (fast_num, fast_den) == fenwick_weighted_concordance(x, y, weights)
        scale = max(1.0, abs(naive_den))
        assert fast_num == pytest.approx(naive_num, abs=1e-9 * scale)
        assert fast_den == pytest.approx(naive_den, abs=1e-9 * scale)
        wrapped = weighted_pair_concordance(x, y, weights)
        assert wrapped == (fast_num, fast_den)

    def test_tau_a_and_tau_b_kernel_invariant(self, rng, force_kernel):
        vectors = list(random_vector_pairs(rng, (3, 40, 230)))
        taus = {}
        for kernel in ("naive", "fast"):
            force_kernel(kernel)
            taus[kernel] = [
                (kendall_tau_a(x, y), kendall_tau_b(x, y)) for x, y in vectors
            ]
        assert taus["fast"] == taus["naive"]

    def test_validation_still_enforced(self):
        with pytest.raises(EstimationError):
            concordance_sum([1.0], [1.0])
        with pytest.raises(EstimationError):
            concordance_sum([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(EstimationError):
            weighted_pair_concordance([1, 2], [1, 2], [-1.0, 1.0])
