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


class TestAppendColumns:
    def test_bit_identical_to_one_shot_pass(self, attributed_random):
        computer = DensityComputer(attributed_random.csr)
        indicators = attributed_random.indicator_matrix(["a", "b", "c"])
        nodes = np.arange(0, 60)
        full = computer.density_matrix(nodes, indicators, 2)
        grown = computer.density_matrix(nodes[:25], indicators, 2)
        for stop in (40, 60):
            grown = computer.append_columns(
                grown, nodes[grown.num_reference_nodes:stop], indicators
            )
        assert np.array_equal(grown.densities, full.densities)
        assert np.array_equal(grown.counts, full.counts)
        assert np.array_equal(grown.vicinity_sizes, full.vicinity_sizes)
        assert np.array_equal(grown.reference_nodes, full.reference_nodes)

    def test_row_restricted_append_fills_only_live_rows(self, attributed_random):
        computer = DensityComputer(attributed_random.csr)
        indicators = attributed_random.indicator_matrix(["a", "b", "c"])
        nodes = np.arange(0, 40)
        full = computer.density_matrix(nodes, indicators, 1)
        base = computer.density_matrix(nodes[:15], indicators, 1)
        live = np.array([0, 2])
        grown = computer.append_columns(
            base, nodes[15:], indicators[live], rows=live
        )
        assert np.array_equal(grown.densities[live], full.densities[live])
        # Dead rows keep zero counts in the appended columns (never read).
        assert (grown.counts[1, 15:] == 0).all()
        # Shared per-column quantities are exact regardless of row subset.
        assert np.array_equal(grown.vicinity_sizes, full.vicinity_sizes)

    def test_only_new_nodes_are_traversed(self, attributed_random):
        computer = DensityComputer(attributed_random.csr)
        indicators = attributed_random.indicator_matrix(["a", "b"])
        base = computer.density_matrix(np.arange(30), indicators, 1)
        before = computer.engine.bfs_calls
        computer.append_columns(base, np.arange(30, 40), indicators)
        assert computer.engine.bfs_calls - before == 10

    def test_empty_append_is_identity(self, attributed_random):
        computer = DensityComputer(attributed_random.csr)
        indicators = attributed_random.indicator_matrix(["a", "b"])
        base = computer.density_matrix(np.arange(20), indicators, 1)
        grown = computer.append_columns(base, [], indicators)
        assert np.array_equal(grown.densities, base.densities)

    def test_validates_row_mapping(self, attributed_random):
        computer = DensityComputer(attributed_random.csr)
        indicators = attributed_random.indicator_matrix(["a", "b", "c"])
        base = computer.density_matrix(np.arange(10), indicators, 1)
        with pytest.raises(ValueError, match="rows"):
            computer.append_columns(
                base, [11], indicators[:2], rows=np.array([0])
            )
        with pytest.raises(ValueError, match="pass rows="):
            computer.append_columns(base, [11], indicators[:2])
