"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core import estimators
from repro.events.attributed_graph import AttributedGraph
from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi_graph
from repro.stats import fast_kendall


@pytest.fixture
def path_graph() -> Graph:
    """A 6-node path: 0-1-2-3-4-5."""
    graph = Graph(6)
    graph.add_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    return graph


@pytest.fixture
def star_graph() -> Graph:
    """A star with centre 0 and leaves 1..5."""
    graph = Graph(6)
    graph.add_edges([(0, leaf) for leaf in range(1, 6)])
    return graph


@pytest.fixture
def two_triangles_graph() -> Graph:
    """Two triangles joined by one bridge edge: {0,1,2} - {3,4,5}."""
    graph = Graph(6)
    graph.add_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    return graph


@pytest.fixture
def random_graph() -> Graph:
    """A moderately sized random graph (deterministic seed)."""
    return erdos_renyi_graph(200, 0.03, random_state=123)


@pytest.fixture
def attributed_path(path_graph) -> AttributedGraph:
    """The path graph with two overlapping events."""
    return AttributedGraph(path_graph, {"a": [0, 1], "b": [4, 5]})


@pytest.fixture
def attributed_random(random_graph) -> AttributedGraph:
    """The random graph with clustered and scattered events."""
    rng = np.random.default_rng(7)
    nodes_a = rng.choice(200, size=30, replace=False)
    nodes_b = rng.choice(200, size=30, replace=False)
    return AttributedGraph(random_graph, {"a": nodes_a, "b": nodes_b, "c": [0, 1, 2]})


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for tests."""
    return np.random.default_rng(42)


@pytest.fixture
def force_kernel(monkeypatch):
    """Pin the concordance kernels to one path for the rest of a test.

    ``force_kernel("naive")`` moves the facades' size-dispatch threshold past
    every input and scores the batcher's pairs with the O(n²) sign-matrix
    kernel; ``force_kernel("fast")`` runs the facades and the batcher on the
    merge-sort kernel; ``force_kernel("table")`` scores every batcher pair
    with the contingency-table kernel (facades keep the library threshold);
    ``force_kernel("auto")`` restores the library dispatch.  The library
    offers no such switch (the kernels return the same ``S``); tests use
    this one to check exactly that.  Density threads share the process, so
    the choice holds for every worker count.
    """
    # path: (facade crossover, batcher table cells per observation, batcher
    # kernel beyond the table)
    paths = {
        "naive": (sys.maxsize, 0, fast_kendall.naive_concordance_sum),
        "fast": (2, 0, fast_kendall.merge_concordance_sum),
        "table": (
            fast_kendall.DEFAULT_CROSSOVER, sys.maxsize,
            fast_kendall.merge_concordance_sum,
        ),
        "auto": (
            fast_kendall.DEFAULT_CROSSOVER, estimators.TABLE_CELLS_PER_OBSERVATION,
            fast_kendall.merge_concordance_sum,
        ),
    }

    def force(path: str) -> None:
        crossover, table_cells, beyond_table = paths[path]
        monkeypatch.setattr(fast_kendall, "DEFAULT_CROSSOVER", crossover)
        monkeypatch.setattr(estimators, "TABLE_CELLS_PER_OBSERVATION", table_cells)
        monkeypatch.setattr(estimators, "merge_concordance_sum", beyond_table)

    return force
