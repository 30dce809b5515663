"""Tests for repro.core.density (Eq. 2)."""

import numpy as np
import pytest

from repro.core.density import DensityComputer


def rows(*indicators):
    """Stack event indicators into a ``density_matrix`` indicator matrix."""
    return np.stack(indicators)


class TestDensityComputer:
    def test_density_on_path_graph(self, path_graph, per_node_densities):
        # Path 0-1-2-3-4-5, event a on {0, 1}.
        csr = path_graph.to_csr()
        computer = DensityComputer(csr)
        indicator = np.zeros(6, dtype=bool)
        indicator[[0, 1]] = True
        level_1 = computer.density_matrix([2, 5], rows(indicator), 1).densities[0]
        # 1-vicinity of node 2 is {1, 2, 3}: one occurrence out of three nodes.
        assert level_1[0] == pytest.approx(1 / 3)
        # 1-vicinity of node 5 is {4, 5}: no occurrences.
        assert level_1[1] == 0.0
        # 2-vicinity of node 2 is {0..4}: two occurrences out of five nodes.
        level_2 = computer.density_matrix([2], rows(indicator), 2).densities[0]
        assert level_2[0] == pytest.approx(2 / 5)
        assert np.array_equal(level_1, per_node_densities(csr, [2, 5], indicator, 1))
        assert np.array_equal(level_2, per_node_densities(csr, [2], indicator, 2))

    def test_density_includes_reference_node_itself(self, path_graph):
        computer = DensityComputer(path_graph.to_csr())
        indicator = np.zeros(6, dtype=bool)
        indicator[0] = True
        matrix = computer.density_matrix([0], rows(indicator), 1)
        assert matrix.densities[0, 0] == pytest.approx(1 / 2)

    def test_density_pair_single_bfs(self, path_graph):
        # Both events' densities around node 2 come out of one pass.
        computer = DensityComputer(path_graph.to_csr())
        indicator_a = np.zeros(6, dtype=bool)
        indicator_a[[0, 1]] = True
        indicator_b = np.zeros(6, dtype=bool)
        indicator_b[[3]] = True
        matrix = computer.density_matrix([2], rows(indicator_a, indicator_b), 1)
        density_a, density_b = matrix.densities[:, 0]
        assert density_a == pytest.approx(1 / 3)
        assert density_b == pytest.approx(1 / 3)

    def test_density_pair_uses_one_bfs_per_reference(self, path_graph):
        computer = DensityComputer(path_graph.to_csr())
        indicator = np.zeros(6, dtype=bool)
        computer.density_matrix([2], rows(indicator, indicator), 1)
        assert computer.engine.bfs_calls == 1

    def test_density_vectors_shape_and_range(self, attributed_random):
        computer = DensityComputer(attributed_random.csr)
        references = [0, 10, 20, 30]
        densities_a, densities_b = computer.density_matrix(
            references, attributed_random.indicator_matrix(["a", "b"]), 2
        ).densities
        assert densities_a.shape == (4,)
        assert np.all((densities_a >= 0) & (densities_a <= 1))
        assert np.all((densities_b >= 0) & (densities_b <= 1))

    def test_invalid_level_rejected(self, path_graph):
        from repro.exceptions import ConfigurationError

        computer = DensityComputer(path_graph.to_csr())
        with pytest.raises(ConfigurationError):
            computer.density_matrix([0], np.zeros((1, 6), dtype=bool), 0)


class TestDensityMatrix:
    def test_matches_direct_computation(self, attributed_path):
        computer = DensityComputer(attributed_path.csr)
        densities_a, densities_b = computer.density_matrix(
            [1, 2, 4], attributed_path.indicator_matrix(["a", "b"]), 1
        ).densities
        # node 1: vicinity {0,1,2}; a on {0,1} -> 2/3, b on {4,5} -> 0
        assert densities_a[0] == pytest.approx(2 / 3)
        assert densities_b[0] == 0.0
        # node 4: vicinity {3,4,5}; a -> 0, b -> 2/3
        assert densities_a[2] == 0.0
        assert densities_b[2] == pytest.approx(2 / 3)

    def test_matches_density_vectors(self, attributed_random, per_node_densities):
        computer = DensityComputer(attributed_random.csr)
        reference_nodes = [3, 17, 40, 99]
        for level in (1, 2):
            matrix = computer.density_matrix(
                reference_nodes, attributed_random.indicator_matrix(["a", "b"]), level
            )
            for row, event in enumerate(("a", "b")):
                expected = per_node_densities(
                    attributed_random.csr, reference_nodes,
                    attributed_random.event_indicator(event), level,
                )
                assert np.array_equal(matrix.densities[row], expected)
            assert matrix.num_events == 2
            assert matrix.num_reference_nodes == 4
            assert matrix.level == level

    def test_counts_and_sizes_consistent(self, attributed_random):
        computer = DensityComputer(attributed_random.csr)
        matrix = computer.density_matrix(
            [0, 5, 10], attributed_random.indicator_matrix(["a", "b", "c"]), 2
        )
        recomputed = matrix.counts / matrix.vicinity_sizes[np.newaxis, :]
        assert np.allclose(matrix.densities, recomputed)

    def test_pair_rows_recovers_pair_population(self, attributed_path):
        # On the 6-path with a={0,1}, b={4,5}: node 2 sees a, node 3 sees b,
        # and every node is within one hop of some event node.
        computer = DensityComputer(attributed_path.csr)
        matrix = computer.density_matrix(
            range(6), attributed_path.indicator_matrix(["a", "b"]), 1
        )
        rows = matrix.pair_rows(0, 1)
        assert list(matrix.reference_nodes[rows]) == [0, 1, 2, 3, 4, 5]

    def test_rejects_bad_indicator_shape(self, attributed_path):
        computer = DensityComputer(attributed_path.csr)
        with pytest.raises(ValueError):
            computer.density_matrix([0], np.zeros((2, 3), dtype=bool), 1)

    def test_prefix_equals_a_pass_over_the_prefix_nodes(self, attributed_random):
        """A column depends on its own reference node only, so top-k's
        screening rounds may read column prefixes of one full pass."""
        computer = DensityComputer(attributed_random.csr)
        indicators = attributed_random.indicator_matrix(["a", "b", "c"])
        nodes = np.random.default_rng(4).permutation(60)
        full = computer.density_matrix(nodes, indicators, 2)
        for size in (1, 25, 40, 60):
            prefix = full.prefix(size)
            counted = computer.density_matrix(nodes[:size], indicators, 2)
            assert np.array_equal(prefix.reference_nodes, counted.reference_nodes)
            assert np.array_equal(prefix.densities, counted.densities)
            assert np.array_equal(prefix.counts, counted.counts)
            assert np.array_equal(prefix.vicinity_sizes, counted.vicinity_sizes)


class TestReferenceNodeConversion:
    def test_every_node_container_gives_the_same_matrix(self, attributed_random):
        computer = DensityComputer(attributed_random.csr)
        indicators = attributed_random.indicator_matrix(["a", "b", "c"])
        expected = computer.density_matrix(list(range(5, 45)), indicators, 2)
        for nodes in (
            range(5, 45),
            np.arange(5, 45, dtype=np.int32),
            np.arange(5, 45, dtype=np.int64),
        ):
            matrix = computer.density_matrix(nodes, indicators, 2)
            assert matrix.reference_nodes.dtype == np.int64
            assert np.array_equal(matrix.reference_nodes, expected.reference_nodes)
            assert np.array_equal(matrix.densities, expected.densities)
            assert np.array_equal(matrix.counts, expected.counts)
            assert np.array_equal(matrix.vicinity_sizes, expected.vicinity_sizes)
