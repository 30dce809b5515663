"""Property-based tests (hypothesis) for the core statistics and structures.

These tests encode the invariants the paper's machinery rests on:
Kendall-statistic bounds and symmetries, the tie-corrected variance algebra,
BFS monotonicity, sampler containment, and estimator consistency between the
weighted and unweighted forms.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimators import (
    EstimateComponents,
    PairEstimateBatcher,
    importance_weighted_estimate,
    plain_estimate,
)
from repro.graph.csr import CSRGraph
from repro.graph.traversal import BFSEngine
from repro.stats.fast_kendall import table_concordance
from repro.stats.kendall import kendall_tau_a, kendall_tau_b, pair_concordance_sum
from repro.stats.ties import (
    degenerate_ties,
    null_variance_numerator_with_ties,
    tie_corrected_sigma,
    tie_group_sizes,
)

# -- strategies --------------------------------------------------------------

density_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=3, max_size=40
)

small_int_vectors = st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=40)


@st.composite
def paired_vectors(draw, elements=density_vectors):
    x = draw(elements)
    y = draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=len(x), max_size=len(x),
    ))
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float)


@st.composite
def random_graphs(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=30))
    possible = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=60, unique=True)) if possible else []
    return CSRGraph.from_edges(num_nodes, edges)


# -- Kendall statistics -------------------------------------------------------


class TestKendallProperties:
    @given(paired_vectors())
    @settings(max_examples=60, deadline=None)
    def test_tau_bounds_and_antisymmetry(self, pair):
        x, y = pair
        tau = kendall_tau_a(x, y)
        assert -1.0 <= tau <= 1.0
        assert kendall_tau_a(x, -y) == pytest.approx(-tau, abs=1e-12)

    @given(paired_vectors())
    @settings(max_examples=60, deadline=None)
    def test_tau_symmetric_in_arguments(self, pair):
        x, y = pair
        assert kendall_tau_a(x, y) == pytest.approx(kendall_tau_a(y, x), abs=1e-12)

    @given(paired_vectors(elements=small_int_vectors))
    @settings(max_examples=60, deadline=None)
    def test_s_invariant_under_monotone_transform(self, pair):
        # Integer-valued densities keep the affine transform exact, so the
        # invariant is not muddied by floating-point collapse of near-ties.
        x, y = pair
        transformed = 3.0 * np.asarray(x, dtype=float) + 1.0
        assert pair_concordance_sum(x, y) == pair_concordance_sum(transformed, y)

    @given(small_int_vectors)
    @settings(max_examples=60, deadline=None)
    def test_tau_b_bounds_with_ties(self, values):
        x = np.asarray(values, dtype=float)
        y = np.asarray(values[::-1], dtype=float)
        assert -1.0 <= kendall_tau_b(x, y) <= 1.0

    @given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                    min_size=3, max_size=40, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_self_correlation_is_one(self, values):
        x = np.asarray(values, dtype=float)
        assert kendall_tau_a(x, x) == pytest.approx(1.0)


class TestTieVarianceProperties:
    @given(small_int_vectors, small_int_vectors)
    @settings(max_examples=60, deadline=None)
    def test_variance_non_negative_and_reduced_by_ties(self, x_values, y_values):
        n = min(len(x_values), len(y_values))
        x = np.asarray(x_values[:n], dtype=float)
        y = np.asarray(y_values[:n], dtype=float)
        with_ties = null_variance_numerator_with_ties(
            n, tie_group_sizes(x), tie_group_sizes(y)
        )
        without_ties = null_variance_numerator_with_ties(n, [], [])
        assert with_ties >= -1e-9
        assert with_ties <= without_ties + 1e-9

    @given(paired_vectors())
    @settings(max_examples=40, deadline=None)
    def test_z_score_finite_when_not_degenerate(self, pair):
        x, y = pair
        if np.unique(x).size <= 1 or np.unique(y).size <= 1:
            return
        sigma = tie_corrected_sigma(x, y)
        assert np.isfinite(sigma)
        assert sigma > 0


class TestEstimatorProperties:
    @given(paired_vectors())
    @settings(max_examples=40, deadline=None)
    def test_plain_estimate_bounds(self, pair):
        x, y = pair
        components = plain_estimate(x, y)
        assert -1.0 <= components.estimate <= 1.0
        assert np.isfinite(components.z_score)

    @given(paired_vectors())
    @settings(max_examples=40, deadline=None)
    def test_uniform_weights_match_plain(self, pair):
        x, y = pair
        n = len(x)
        weighted = importance_weighted_estimate(
            x, y, np.ones(n, dtype=int), np.full(n, 1.0 / max(n, 2))
        )
        plain = plain_estimate(x, y)
        assert weighted.estimate == pytest.approx(plain.estimate, abs=1e-9)
        assert weighted.z_score == pytest.approx(plain.z_score, abs=1e-9)


def _composed_components(x, y):
    """The plain estimate assembled from the public tie helpers, each of
    which recomputes the tie groups: the reference the estimators' single
    tie-group pass must reproduce exactly."""
    n = x.size
    s = float(pair_concordance_sum(x, y))
    degenerate = degenerate_ties(x, y)
    sigma = 0.0 if degenerate else tie_corrected_sigma(x, y)
    return EstimateComponents(
        estimate=s / (0.5 * n * (n - 1)),
        z_score=0.0 if degenerate else (float(s / sigma) if sigma > 0 else 0.0),
        num_reference_nodes=n,
        concordance_sum=s,
        null_sigma=float(sigma),
        ties_a=tuple(tie_group_sizes(x)),
        ties_b=tuple(tie_group_sizes(y)),
        degenerate=degenerate,
    )


@st.composite
def tie_heavy_pairs(draw):
    """Two equal-length vectors over a tiny value set; either may be constant."""
    n = draw(st.integers(min_value=2, max_value=40))
    vectors = []
    for _ in range(2):
        if draw(st.booleans()) and draw(st.booleans()):
            vectors.append([draw(st.sampled_from([0.0, 0.25, 1.0]))] * n)
        else:
            vectors.append(draw(st.lists(
                st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n,
            )))
    return tuple(np.asarray(vector, dtype=float) for vector in vectors)


class TestSingleTiePass:
    @given(tie_heavy_pairs())
    @settings(max_examples=150, deadline=None)
    def test_components_equal_the_composed_reference(self, pair):
        x, y = pair
        expected = _composed_components(x, y)
        batcher = PairEstimateBatcher(np.vstack([x, y]))
        assert plain_estimate(x, y) == expected
        assert batcher.estimate_pair(0, 1) == expected

    @given(tie_heavy_pairs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_column_subsets_equal_the_composed_reference(self, pair, data):
        """Restricted codes are not dense: the contingency table gets empty
        rows and columns, which must not show in ``S`` or the tie groups."""
        x, y = pair
        columns = np.array(sorted(data.draw(st.sets(
            st.integers(min_value=0, max_value=x.size - 1), min_size=2,
        ))))
        batcher = PairEstimateBatcher(np.vstack([x, y]))
        assert batcher.estimate_pair(0, 1, columns) == _composed_components(
            x[columns], y[columns]
        )

    def test_two_observations(self):
        x, y = np.array([0.25, 0.5]), np.array([1.0, 0.0])
        expected = _composed_components(x, y)
        assert expected.concordance_sum == -1 and not expected.degenerate
        assert PairEstimateBatcher(np.vstack([x, y])).estimate_pair(0, 1) == expected

    def test_single_code_row_is_degenerate(self):
        """Kx = 1: a one-row table, no ordered pairs, z = 0."""
        x, y = np.full(9, 0.5), np.array([0.0, 1.0, 0.25, 0.25, 0.5, 1.0, 0.0, 0.5, 1.0])
        for a, b in ((x, y), (y, x)):
            components = PairEstimateBatcher(np.vstack([a, b])).estimate_pair(0, 1)
            assert components == _composed_components(a, b)
            assert components.degenerate and components.z_score == 0.0
            assert components.concordance_sum == 0

    def test_table_rule_boundary(self, monkeypatch):
        """The table serves a pair with exactly ``Kx·Ky == c·n`` cells and
        the merge kernel one more distinct value; both match the reference."""
        from repro.core import estimators

        c = estimators.TABLE_CELLS_PER_OBSERVATION
        n = 2 * c
        rng = np.random.default_rng(5)
        y = rng.permutation(n) / n  # Ky = n distinct values
        tabled = []

        def spy(*args):
            tabled.append(args[2:])
            return table_concordance(*args)

        monkeypatch.setattr(estimators, "table_concordance", spy)
        for kx, uses_table in ((c, True), (c + 1, False)):
            x = rng.permutation(np.arange(n) % kx) / kx  # Kx = kx distinct values
            tabled.clear()
            components = PairEstimateBatcher(np.vstack([x, y])).estimate_pair(0, 1)
            assert components == _composed_components(x, y)
            assert tabled == ([(kx, n)] if uses_table else [])

    def test_constant_vectors_are_degenerate(self):
        x, y = np.full(6, 0.5), np.array([0.0, 1.0, 1.0, 0.25, 0.0, 0.5])
        for a, b in ((x, y), (y, x), (x, x)):
            components = plain_estimate(a, b)
            assert components == _composed_components(a, b)
            assert components.degenerate and components.z_score == 0.0


class TestGraphProperties:
    @given(random_graphs(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_vicinity_monotone_in_h(self, graph, hops):
        engine = BFSEngine(graph)
        source = 0
        smaller = set(int(x) for x in engine.vicinity(source, hops))
        larger = set(int(x) for x in engine.vicinity(source, hops + 1))
        assert smaller <= larger
        assert source in smaller

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_batch_bfs_equals_union_of_single_source(self, graph):
        engine = BFSEngine(graph)
        sources = list(range(0, graph.num_nodes, 3)) or [0]
        union = set()
        for source in sources:
            union |= set(int(x) for x in engine.vicinity(source, 2))
        batch = set(int(x) for x in engine.multi_source_vicinity(sources, 2))
        assert batch == union

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_degrees_sum_to_twice_edges(self, graph):
        assert int(graph.degrees().sum()) == 2 * graph.num_edges


class TestSamplerProperties:
    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=2, max_value=15))
    @settings(max_examples=30, deadline=None)
    def test_batch_bfs_sample_contained_in_population(self, seed, sample_size):
        from repro.graph.generators import erdos_renyi_graph
        from repro.sampling.batch_bfs import BatchBFSSampler

        graph = erdos_renyi_graph(60, 0.05, random_state=seed).to_csr()
        rng = np.random.default_rng(seed)
        event_nodes = rng.choice(60, size=8, replace=False)
        sampler = BatchBFSSampler(graph, random_state=seed)
        sample = sampler.sample(event_nodes, 1, sample_size)
        population = set(int(x) for x in sampler.population(event_nodes, 1))
        assert set(int(x) for x in sample.nodes) <= population
        assert sample.num_distinct == min(sample_size, len(population))
