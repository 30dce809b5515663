"""Tests for repro.core.weighted (the distance-weighted Section 6 extension)."""

import numpy as np
import pytest

from repro.core.weighted import distance_weighted_densities, weighted_tesc_score
from repro.events.attributed_graph import AttributedGraph
from repro.exceptions import ConfigurationError


class TestDistanceWeightedDensities:
    def test_path_graph_decay(self, path_graph):
        attributed = AttributedGraph(path_graph, {"a": [0]})
        densities = distance_weighted_densities(attributed, "a", [0, 1, 3], decay=0.5,
                                                max_hops=2)
        # Reference 0: occurrence at distance 0 -> numerator 1.
        assert densities[0] > densities[1] > densities[2]

    def test_decay_one_matches_plain_density(self, path_graph):
        from repro.core.density import DensityComputer

        attributed = AttributedGraph(path_graph, {"a": [0, 1]})
        weighted = distance_weighted_densities(attributed, "a", [2], decay=1.0, max_hops=1)
        plain = DensityComputer(attributed.csr).density_matrix(
            [2], attributed.indicator_matrix(["a"]), 1
        )
        assert weighted[0] == pytest.approx(plain.densities[0, 0])

    def test_values_in_unit_interval(self, attributed_random):
        densities = distance_weighted_densities(
            attributed_random, "a", range(0, 50, 5), decay=0.5, max_hops=3
        )
        assert np.all((densities >= 0) & (densities <= 1))

    def test_invalid_decay(self, attributed_path):
        with pytest.raises(ConfigurationError):
            distance_weighted_densities(attributed_path, "a", [0], decay=0.0)
        with pytest.raises(ConfigurationError):
            distance_weighted_densities(attributed_path, "a", [0], decay=1.5)


class TestWeightedTescScore:
    def test_score_range(self, attributed_random):
        score, densities_a, densities_b = weighted_tesc_score(
            attributed_random, "a", "b", range(0, 60, 3)
        )
        assert -1.0 <= score <= 1.0
        assert densities_a.shape == densities_b.shape

    def test_same_event_gives_positive_score(self, attributed_random):
        # τ-a over identical density vectors is 1 minus a small tie penalty.
        score, _, _ = weighted_tesc_score(attributed_random, "a", "a", range(0, 60, 3))
        assert score > 0.95
