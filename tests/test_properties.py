"""Property-based tests (hypothesis) for the core statistics and structures.

These tests encode the invariants the paper's machinery rests on:
Kendall-statistic bounds and symmetries, the tie-corrected variance algebra,
BFS monotonicity, sampler containment, and estimator consistency between the
weighted and unweighted forms.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import estimators
from repro.core.batch import RankedPair, estimate_pair_list
from repro.core.config import TescConfig
from repro.core.density import DensityMatrix, densities_from_counts
from repro.core.estimators import (
    EstimateComponents,
    PairEstimateBatcher,
    importance_weighted_estimate,
    plain_estimate,
)
from repro.exceptions import EstimationError, InsufficientSampleError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import BFSEngine
from repro.stats import ties
from repro.stats.hypothesis import CorrelationVerdict, decide
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


def _population_pass(x, y):
    """``(n, estimate, z_score, degenerate)`` of the population pass for the
    one pair ``(x, y)``."""
    scores = PairEstimateBatcher(np.vstack([x, y])).estimate_pairs([0], [1])
    return tuple(field[0].item() for field in scores)


def _population_reference(x, y):
    """:func:`_population_pass`'s numbers from :func:`_composed_components`
    over the pair's population, the columns where either vector is nonzero
    (``DensityMatrix.pair_rows``)."""
    population = np.flatnonzero((x != 0) | (y != 0))
    if population.size < 2:
        return population.size, 0.0, 0.0, False
    expected = _composed_components(x[population], y[population])
    return (
        expected.num_reference_nodes, expected.estimate, expected.z_score,
        expected.degenerate,
    )


class TestSingleTiePass:
    @given(tie_heavy_pairs())
    @settings(max_examples=150, deadline=None)
    def test_components_equal_the_composed_reference(self, pair):
        x, y = pair
        assert plain_estimate(x, y) == _composed_components(x, y)
        assert _population_pass(x, y) == _population_reference(x, y)

    def test_two_observations(self):
        x, y = np.array([0.25, 0.5]), np.array([1.0, 0.0])
        assert _composed_components(x, y).concordance_sum == -1
        assert _population_pass(x, y) == _population_reference(x, y) == (
            2, -1.0, -1.0, False
        )

    def test_single_code_row_is_degenerate(self):
        """Kx = 1: a one-row table, no ordered pairs, z = 0."""
        x, y = np.full(9, 0.5), np.array([0.0, 1.0, 0.25, 0.25, 0.5, 1.0, 0.0, 0.5, 1.0])
        for a, b in ((x, y), (y, x)):
            assert _population_pass(a, b) == _population_reference(a, b) == (
                9, 0.0, 0.0, True
            )

    def test_table_rule_boundary(self, monkeypatch):
        """The population pass tables a pair with exactly ``Kx·Ky == c·n``
        cells and sends one with one more distinct value to the merge
        kernel; both match the reference."""
        c = estimators.TABLE_CELLS_PER_OBSERVATION
        n = 2 * c
        rng = np.random.default_rng(5)
        # Ky = n distinct values and no 0, so the population is every column.
        y = (rng.permutation(n) + 1) / n
        tabled = []
        group_tables_sum = estimators._group_tables_sum

        def spy(x_codes, partner_codes, shape, fill, z):
            tabled.extend([shape] * len(z))
            return group_tables_sum(x_codes, partner_codes, shape, fill, z)

        monkeypatch.setattr(estimators, "_group_tables_sum", spy)
        for kx, uses_table in ((c, True), (c + 1, False)):
            x = rng.permutation(np.arange(n) % kx) / kx  # Kx = kx values, 0 among them
            tabled.clear()
            assert _population_pass(x, y) == _population_reference(x, y)
            assert tabled == ([(kx, n)] if uses_table else [])

    def test_constant_vectors_are_degenerate(self):
        x, y = np.full(6, 0.5), np.array([0.0, 1.0, 1.0, 0.25, 0.0, 0.5])
        for a, b in ((x, y), (y, x), (x, x)):
            components = plain_estimate(a, b)
            assert components == _composed_components(a, b)
            assert components.degenerate and components.z_score == 0.0


@st.composite
def sparse_count_matrices(draw):
    """A tie-heavy, sparse :class:`DensityMatrix`: tiny counts and vicinity
    sizes, mostly-zero rows, and now and then an all-zero row or a row
    with no zero at all."""
    num_events = draw(st.integers(min_value=2, max_value=6))
    num_columns = draw(st.integers(min_value=2, max_value=30))
    sizes = np.asarray(draw(st.lists(
        st.integers(min_value=1, max_value=4), min_size=num_columns, max_size=num_columns,
    )))
    counts = np.zeros((num_events, num_columns), dtype=np.int64)
    for row in range(num_events):
        shape = draw(st.sampled_from(["sparse", "sparse", "sparse", "empty", "full"]))
        if shape == "empty":
            continue
        low = 1 if shape == "full" else 0
        present = draw(st.lists(st.booleans(), min_size=num_columns, max_size=num_columns))
        for column in range(num_columns):
            if shape == "full" or present[column]:
                counts[row, column] = draw(
                    st.integers(min_value=low, max_value=int(sizes[column]))
                )
    return DensityMatrix(
        reference_nodes=np.arange(num_columns, dtype=np.int64),
        densities=densities_from_counts(counts, sizes),
        counts=counts, vicinity_sizes=sizes, level=1,
    )


def _per_pair_oracle(pair_list, row_of, matrix, cfg):
    """:func:`plain_estimate` over ``DensityMatrix.pair_rows`` and ``decide``,
    one pair at a time: the reference the population pass must equal."""
    ranked = []
    for event_a, event_b in pair_list:
        columns = matrix.pair_rows(row_of[event_a], row_of[event_b])
        if columns.size < 2:
            ranked.append(RankedPair(
                rank=0, event_a=event_a, event_b=event_b, score=0.0, z_score=0.0,
                p_value=1.0, verdict=CorrelationVerdict.INDEPENDENT,
                num_reference_nodes=int(columns.size), degenerate=True, insufficient=True,
            ))
            continue
        components = plain_estimate(
            matrix.densities[row_of[event_a], columns],
            matrix.densities[row_of[event_b], columns],
        )
        significance = decide(components.z_score, cfg.alpha, cfg.alternative)
        ranked.append(RankedPair(
            rank=0, event_a=event_a, event_b=event_b, score=components.estimate,
            z_score=components.z_score, p_value=significance.p_value,
            verdict=significance.verdict,
            num_reference_nodes=components.num_reference_nodes,
            degenerate=components.degenerate,
        ))
    return ranked


def _ordered_pairs(matrix):
    events = [f"e{row}" for row in range(matrix.num_events)]
    return list(itertools.permutations(events, 2)), {e: i for i, e in enumerate(events)}


class TestPopulationPass:
    """``estimate_pair_list``'s one-pass population scoring against the
    per-pair oracle, field for field."""

    CONFIG = TescConfig(alpha=0.1)

    def _assert_matches_oracle(self, matrix):
        pair_list, row_of = _ordered_pairs(matrix)
        batcher = PairEstimateBatcher(matrix.densities)
        assert estimate_pair_list(
            pair_list, row_of, batcher, self.CONFIG, "keep"
        ) == _per_pair_oracle(pair_list, row_of, matrix, self.CONFIG)

    @given(sparse_count_matrices(), st.sampled_from([0, 1, 32, 10**9]))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_pair_oracle(self, matrix, cells_per_observation):
        """Every ``c`` of the ``Kx·Ky <= c·n`` rule: 0 sends every pair to
        the merge kernel, 10**9 every pair to the table."""
        with mock.patch.object(
            estimators, "TABLE_CELLS_PER_OBSERVATION", cells_per_observation
        ):
            self._assert_matches_oracle(matrix)

    @given(sparse_count_matrices())
    @settings(max_examples=40, deadline=None)
    def test_python_integer_tie_sums_match(self, matrix):
        """Populations too large for int64 tie sums take Python integers;
        forcing that path on small inputs changes no answer."""
        with mock.patch.object(ties, "EXACT_INT64_OBSERVATIONS", 0):
            self._assert_matches_oracle(matrix)

    @given(sparse_count_matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_column_prefixes_match_the_oracle(self, matrix, data):
        """Top-k screening rounds score column prefixes of one matrix, each
        through a fresh batcher."""
        widths = sorted(set(data.draw(st.lists(
            st.integers(min_value=1, max_value=matrix.num_reference_nodes),
            min_size=1, max_size=4,
        ))))
        pair_list, row_of = _ordered_pairs(matrix)
        for width in widths + [matrix.num_reference_nodes]:
            prefix = matrix.prefix(width)
            assert estimate_pair_list(
                pair_list, row_of, PairEstimateBatcher(prefix.densities),
                self.CONFIG, "keep",
            ) == _per_pair_oracle(pair_list, row_of, prefix, self.CONFIG)

    @pytest.mark.parametrize("chunk_cells", [1, 64, 400, 1 << 16])
    def test_split_groups_match_the_oracle(self, chunk_cells):
        """Many pairs share one sparse row and their partners' ``K`` range
        from 2 to ~60; a low cell bound splits the group into chunks."""
        rng = np.random.default_rng(11)
        columns = 120
        sizes = np.full(columns, 60)
        counts = np.zeros((14, columns), dtype=np.int64)
        counts[0, rng.choice(columns, size=12, replace=False)] = rng.integers(1, 4, size=12)
        for row, distinct in enumerate(
            [1, 2, 3, 5, 8, 13, 21, 34, 55, 60, 2, 30, 59], start=1
        ):
            # A quarter of the partners have no zero at all.
            low = 1 if row % 4 == 0 else 0
            values = rng.integers(low, low + distinct, size=columns)
            present = rng.random(columns) < (1.0 if low else 0.7)
            counts[row] = np.where(present, values, 0).clip(max=60)
        matrix = DensityMatrix(
            reference_nodes=np.arange(columns, dtype=np.int64),
            densities=densities_from_counts(counts, sizes),
            counts=counts, vicinity_sizes=sizes, level=1,
        )
        row_of = {f"e{row}": row for row in range(matrix.num_events)}
        pair_list = [(f"e{row}", "e0") for row in range(1, 14)]
        pair_list += [("e0", f"e{row}") for row in range(1, 14)]
        pair_list += [("e1", "e12"), ("e12", "e4")]
        calls = []
        group_tables_sum = estimators._group_tables_sum

        def spy(x_codes, partner_codes, shape, fill, z):
            calls.append((len(z), shape, x_codes.size))
            return group_tables_sum(x_codes, partner_codes, shape, fill, z)

        with mock.patch.object(estimators, "TABLE_CELLS_PER_OBSERVATION", 10**9), \
                mock.patch.object(estimators, "_CHUNK_CELLS", chunk_cells), \
                mock.patch.object(estimators, "_group_tables_sum", spy):
            ranked = estimate_pair_list(
                pair_list, row_of, PairEstimateBatcher(matrix.densities),
                self.CONFIG, "keep",
            )
        assert ranked == _per_pair_oracle(pair_list, row_of, matrix, self.CONFIG)
        assert sum(pairs for pairs, _, _ in calls) == len(pair_list)
        for pairs, (kx, ky), gathered in calls:
            assert pairs == 1 or pairs * max(kx * ky, gathered) <= chunk_cells
        if chunk_cells < 1 << 16:
            # Row 0's 26 pairs do not fit one call.
            assert len(calls) > 2

    def _matrix(self, densities):
        densities = np.asarray(densities, dtype=float)
        counts = (densities * 4).astype(np.int64)
        return DensityMatrix(
            reference_nodes=np.arange(densities.shape[1], dtype=np.int64),
            densities=densities, counts=counts,
            vicinity_sizes=np.full(densities.shape[1], 4), level=1,
        )

    def test_edge_populations(self):
        matrix = self._matrix([
            [0.25, 0.5, 0.0, 0.0, 0.0],   # e0: support {0, 1}
            [0.5, 0.25, 0.0, 0.0, 0.0],   # e1: the same support
            [0.0, 0.0, 0.0, 0.0, 0.0],    # e2: all zero
            [0.0, 0.0, 0.0, 0.0, 0.0],    # e3: all zero
            [0.5, 0.25, 1.0, 0.75, 0.5],  # e4: no absent column
            [0.0, 0.0, 0.0, 0.0, 0.5],    # e5: one nonzero column
            [0.5, 0.5, 0.5, 0.5, 0.5],    # e6: constant, no absent column
            [0.25, 0.25, 0.0, 0.0, 0.0],  # e7: one code over {0, 1}
        ])
        pair_list, row_of = _ordered_pairs(matrix)
        ranked = {pair.events: pair for pair in estimate_pair_list(
            pair_list, row_of, PairEstimateBatcher(matrix.densities), self.CONFIG, "keep"
        )}
        assert ranked == {
            pair.events: pair
            for pair in _per_pair_oracle(pair_list, row_of, matrix, self.CONFIG)
        }
        # n = 2: a single discordant pair.
        assert ranked["e0", "e1"].num_reference_nodes == 2
        assert ranked["e0", "e1"].score == -1.0 and not ranked["e0", "e1"].degenerate
        # All-zero rows: n = 0 and n = 1 are insufficient.
        assert ranked["e2", "e3"].insufficient and ranked["e2", "e3"].num_reference_nodes == 0
        assert ranked["e2", "e5"].insufficient and ranked["e2", "e5"].num_reference_nodes == 1
        # Single-code populations are degenerate, with and without columns
        # where both rows are 0.
        assert ranked["e7", "e0"].degenerate and ranked["e7", "e0"].z_score == 0.0
        assert ranked["e7", "e0"].num_reference_nodes == 2
        for pair in (("e6", "e4"), ("e2", "e4"), ("e0", "e6")):
            assert ranked[pair].degenerate and ranked[pair].z_score == 0.0
            assert ranked[pair].num_reference_nodes == 5
        assert not ranked["e0", "e4"].degenerate

    def test_negative_densities_are_refused(self):
        """Density 0 must be each row's smallest value (code 0)."""
        batcher = PairEstimateBatcher(np.array([[-0.5, 0.0, 0.5], [0.0, 0.25, 0.5]]))
        with pytest.raises(EstimationError, match="nonnegative"):
            batcher.estimate_pairs([0], [1])

    def test_raise_stops_at_the_first_insufficient_pair(self):
        matrix = self._matrix([
            [0.25, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.5],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ])
        row_of = {f"e{row}": row for row in range(4)}
        pair_list = [("e0", "e1"), ("e1", "e2"), ("e2", "e3")]
        batcher = PairEstimateBatcher(matrix.densities)
        with pytest.raises(InsufficientSampleError) as raised:
            estimate_pair_list(pair_list, row_of, batcher, self.CONFIG, "raise")
        assert str(raised.value) == (
            "pair ('e1', 'e2') has only 1 reference nodes in the shared sample"
        )


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
