"""Batch BFS reference-node sampling (Algorithm 1).

Batch BFS enumerates the whole reference population ``V^h_{a∪b}`` with a
single multi-source h-hop BFS (worst case ``O(|V| + |E|)``), then draws a
uniform sample of ``n`` nodes from it.  It is the most accurate strategy and
the paper's recommendation when ``|V_{a∪b}|`` is small.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.traversal import BFSEngine
from repro.sampling.base import ReferenceSample, ReferenceSampler, SamplingCost
from repro.utils.rng import RandomState


class BatchBFSSampler(ReferenceSampler):
    """Uniform sampling after enumerating ``V^h_{a∪b}`` with Batch BFS."""

    name = "batch_bfs"

    def __init__(self, graph: CSRGraph, random_state: RandomState = None) -> None:
        super().__init__(graph, random_state)
        self._engine = BFSEngine(graph)

    def population(self, event_nodes: np.ndarray, level: int) -> np.ndarray:
        """The full reference population ``V^h_{a∪b}`` (Algorithm 1)."""
        return self._engine.multi_source_vicinity(event_nodes, level)

    def sample(self, event_nodes: np.ndarray, level: int, sample_size: int,
               population: Optional[np.ndarray] = None) -> ReferenceSample:
        """Draw ``sample_size`` nodes uniformly from ``V^h_{event_nodes}``.

        ``population`` is that population as :meth:`population` returns it,
        when the caller already holds it; the draw is then the same, without
        the BFS.
        """
        event_nodes = self._validate(event_nodes, level, sample_size)
        self._engine.reset_counters()
        if population is None:
            population = self.population(event_nodes, level)
        population_size = int(population.size)
        if sample_size >= population_size:
            chosen = population.copy()
            draw_order = None
        else:
            # Generator.choice without replacement shuffles its output, so
            # ``chosen`` is in exchangeable random order: every prefix is a
            # uniform without-replacement sample of the population.  Recording
            # it (pre-sort) is what lets top-k rounds slice prefixes of it.
            chosen = self.rng.choice(population, size=sample_size, replace=False)
            draw_order = chosen.copy()
        cost = SamplingCost()
        cost.merge_engine(self._engine)
        return ReferenceSample(
            nodes=np.sort(chosen),
            frequencies=np.ones(chosen.size, dtype=np.int64),
            probabilities=None,
            weighted=False,
            population_size=population_size,
            cost=cost,
            draw_order=draw_order,
        )


class ExhaustiveSampler(BatchBFSSampler):
    """Use *every* reference node (no sampling).

    This computes the population statistic ``τ(a, b)`` of Eq. 3 exactly; it
    is practical only when ``N`` is small and serves as the ground truth for
    tests and for calibrating the sampling estimators.
    """

    name = "exhaustive"

    def sample(self, event_nodes: np.ndarray, level: int, sample_size: int = 1,
               population: Optional[np.ndarray] = None) -> ReferenceSample:
        event_nodes = self._validate(event_nodes, level, max(sample_size, 1))
        self._engine.reset_counters()
        if population is None:
            population = self.population(event_nodes, level)
        cost = SamplingCost()
        cost.merge_engine(self._engine)
        return ReferenceSample(
            nodes=np.sort(population),
            frequencies=np.ones(population.size, dtype=np.int64),
            probabilities=None,
            weighted=False,
            population_size=int(population.size),
            cost=cost,
        )
