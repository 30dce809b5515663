"""Tests for repro.graph.csr."""

import numpy as np
import pytest

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph


class TestConstruction:
    def test_from_edges(self):
        csr = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert csr.num_nodes == 4
        assert csr.num_edges == 3

    def test_from_edges_deduplicates(self):
        csr = CSRGraph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert csr.num_edges == 1

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(3, [(1, 1)])

    def test_from_edges_rejects_unknown_node(self):
        with pytest.raises(NodeNotFoundError):
            CSRGraph.from_edges(2, [(0, 5)])

    def test_from_edges_reports_the_first_bad_edge(self):
        with pytest.raises(NodeNotFoundError) as excinfo:
            CSRGraph.from_edges(3, [(0, 1), (-1, 2), (1, 1)])
        assert excinfo.value.node == -1
        with pytest.raises(GraphError, match="self-loop"):
            CSRGraph.from_edges(3, [(0, 1), (2, 2), (0, 7)])

    def test_from_edges_matches_the_adjacency_build(self, random_graph):
        edges = list(random_graph.edges())
        edges += [(v, u) for u, v in edges[::3]]
        csr = CSRGraph.from_edges(random_graph.num_nodes, edges)
        expected = random_graph.to_csr()
        assert np.array_equal(csr.indptr, expected.indptr)
        assert np.array_equal(csr.indices, expected.indices)

    def test_from_adjacency(self):
        csr = CSRGraph.from_adjacency([{1}, {0, 2}, {1}])
        assert csr.num_edges == 2
        assert list(csr.neighbors(1)) == [0, 2]

    def test_from_adjacency_accepts_generators(self):
        """Regression: one-shot neighbour iterables used to be consumed by a
        discarded degree pass, silently producing an edgeless graph."""
        sets = [{1}, {0, 2}, {1}]
        csr = CSRGraph.from_adjacency([iter(neigh) for neigh in sets])
        assert csr.num_edges == 2
        assert list(csr.neighbors(1)) == [0, 2]
        generators = ((node for node in neigh) for neigh in sets)
        csr = CSRGraph.from_adjacency(list(generators))
        assert csr.num_edges == 2

    def test_invalid_indptr_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([1, 2]), np.array([0, 1]))

    def test_indptr_indices_mismatch_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2]), np.array([1]))

    def test_empty_graph(self):
        csr = CSRGraph.from_edges(0, [])
        assert csr.num_nodes == 0
        assert csr.num_edges == 0


class TestQueries:
    @pytest.fixture
    def csr(self, two_triangles_graph):
        return two_triangles_graph.to_csr()

    def test_neighbors_sorted(self, csr):
        assert list(csr.neighbors(2)) == [0, 1, 3]

    def test_degree_and_degrees(self, csr):
        assert csr.degree(2) == 3
        assert np.array_equal(csr.degrees(), np.array([2, 2, 3, 3, 2, 2]))

    def test_has_edge(self, csr):
        assert csr.has_edge(2, 3)
        assert not csr.has_edge(0, 5)

    def test_has_edge_unknown_node(self, csr):
        with pytest.raises(NodeNotFoundError):
            csr.has_edge(0, 10)

    def test_edges_each_once(self, csr, two_triangles_graph):
        assert set(csr.edges()) == set(two_triangles_graph.edges())

    def test_to_graph_round_trip(self, csr, two_triangles_graph):
        assert csr.to_graph() == two_triangles_graph

    def test_to_graph_keeps_the_csr_and_builds_sets_in_edge_order(self, csr):
        graph = csr.to_graph()
        assert graph.to_csr() is csr
        reference = Graph(csr.num_nodes)
        reference.add_edges(csr.edges())
        assert [list(graph.neighbors(v)) for v in graph.nodes()] == [
            list(reference.neighbors(v)) for v in reference.nodes()
        ]
        assert graph.to_csr() is csr
        graph.remove_edge(2, 3)
        assert graph.to_csr() is not csr
        assert graph.to_csr().num_edges == csr.num_edges - 1

    def test_repr(self, csr):
        assert "CSRGraph" in repr(csr)


class TestConsistencyWithAdjacency:
    def test_random_graph_round_trip(self, random_graph):
        csr = random_graph.to_csr()
        assert csr.num_edges == random_graph.num_edges
        for node in range(0, random_graph.num_nodes, 17):
            assert set(int(x) for x in csr.neighbors(node)) == random_graph.neighbors(node)


class TestReplaceRows:
    def test_matches_full_rebuild(self, random_graph):
        """Splicing the edited rows in equals rebuilding the edited graph."""
        csr = random_graph.to_csr()
        edges = list(random_graph.edges())
        removed = edges[::7][:10]
        candidates = [
            (u, v)
            for u in range(0, 60, 3)
            for v in range(u + 1, 60, 5)
            if not csr.has_edge(u, v)
        ][:10]
        reference = random_graph.copy()
        for u, v in removed:
            reference.remove_edge(u, v)
        for u, v in candidates:
            reference.add_edge(u, v)
        touched = {node for edge in removed + candidates for node in edge}
        patched = csr.replace_rows(
            {node: sorted(reference.neighbors(node)) for node in touched}
        )
        expected = reference.to_csr()
        np.testing.assert_array_equal(patched.indptr, expected.indptr)
        np.testing.assert_array_equal(patched.indices, expected.indices)
        assert patched.epoch == csr.epoch + 1
