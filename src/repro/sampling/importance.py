"""Importance sampling of reference nodes (Algorithm 2).

Instead of rejecting draws to force uniformity, importance sampling keeps
every draw and corrects for the non-uniform selection distribution
``p(u) = |V^h_u ∩ V_{a∪b}| / N_sum`` inside the estimator ``t̃`` (Eq. 8).
Each iteration costs one h-hop BFS, so the total sampling cost depends on the
requested sample size ``n`` rather than on the population size ``N``.

The batched variant (Section 5.2.2, Figure 7) draws ``batch_per_vicinity``
reference nodes from each visited event vicinity, trading a small amount of
estimator quality (local-correlation trapping) for fewer BFS calls.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.exceptions import SamplingError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import BFSEngine
from repro.graph.vicinity import VicinityIndex
from repro.sampling.base import ReferenceSample, ReferenceSampler, SamplingCost
from repro.utils.rng import RandomState
from repro.utils.validation import check_positive_int


class ImportanceSampler(ReferenceSampler):
    """Non-uniform sampling with importance-weight correction (Algorithm 2).

    Parameters
    ----------
    graph:
        The CSR graph.
    vicinity_index:
        Pre-computed ``|V^h_v|`` index (built lazily when omitted).
    batch_per_vicinity:
        How many reference nodes to draw from each sampled event node's
        vicinity.  1 reproduces Algorithm 2 exactly; larger values give the
        batched variant evaluated in Figure 7.
    max_iterations_factor:
        Safety valve on the sampling loop (the loop normally runs ~``n``
        iterations since repeat draws are rare when ``N`` is large).
    """

    name = "importance"

    def __init__(
        self,
        graph: CSRGraph,
        vicinity_index: Optional[VicinityIndex] = None,
        batch_per_vicinity: int = 1,
        random_state: RandomState = None,
        max_iterations_factor: int = 50,
    ) -> None:
        super().__init__(graph, random_state)
        self._engine = BFSEngine(graph)
        self._index = vicinity_index
        self.batch_per_vicinity = check_positive_int(batch_per_vicinity, "batch_per_vicinity")
        self._max_iterations_factor = check_positive_int(
            max_iterations_factor, "max_iterations_factor"
        )

    def _vicinity_index(self, level: int) -> VicinityIndex:
        if self._index is None or level not in self._index.levels:
            levels = {level}
            if self._index is not None:
                levels |= set(self._index.levels)
            self._index = VicinityIndex(self.graph, levels=sorted(levels), lazy=True)
        return self._index

    def sample(self, event_nodes: np.ndarray, level: int,
               sample_size: int) -> ReferenceSample:
        event_nodes = self._validate(event_nodes, level, sample_size)
        self._engine.reset_counters()
        index = self._vicinity_index(level)

        sizes = index.sizes(event_nodes, level).astype(float)
        total_size = sizes.sum()
        if total_size <= 0:
            raise SamplingError("event nodes have empty vicinities")
        # Cumulative distribution over event nodes: one O(log |Va∪b|)
        # searchsorted per draw instead of an O(|Va∪b|) categorical draw.
        cumulative = np.cumsum(sizes / total_size)

        event_marker = np.zeros(self.graph.num_nodes, dtype=bool)
        event_marker[event_nodes] = True

        frequencies: Dict[int, int] = {}
        iterations = 0
        max_iterations = self._max_iterations_factor * sample_size + 10
        while len(frequencies) < sample_size and iterations < max_iterations:
            iterations += 1
            # Line 4: pick an event node with probability |V^h_v| / N_sum.
            pick = int(np.searchsorted(cumulative, self.rng.random(), side="right"))
            pick = min(pick, event_nodes.size - 1)
            source = int(event_nodes[pick])
            # Line 5: one h-hop BFS, then draw reference node(s) uniformly.
            vicinity = self._engine.vicinity(source, level)
            draws = min(self.batch_per_vicinity, int(vicinity.size))
            chosen = self.rng.choice(vicinity, size=draws, replace=False)
            for reference in np.atleast_1d(chosen):
                reference = int(reference)
                frequencies[reference] = frequencies.get(reference, 0) + 1
                if len(frequencies) >= sample_size:
                    break

        if len(frequencies) < 2:
            raise SamplingError(
                "importance sampling could not collect at least two distinct "
                f"reference nodes after {iterations} iterations"
            )

        nodes = np.array(sorted(frequencies), dtype=np.int64)
        weights = np.array([frequencies[int(node)] for node in nodes], dtype=np.int64)

        # p(r) = |V^h_r ∩ V_{a∪b}| / N_sum for each distinct reference node,
        # computed with one grouped BFS over all sampled nodes rather than a
        # per-node Python loop (no RNG is consumed here, so the sample itself
        # is unchanged).
        overlaps, _sizes = self._engine.grouped_marked_counts(
            nodes, level, event_marker[np.newaxis, :]
        )
        probabilities = overlaps[0].astype(float) / total_size
        if np.any(probabilities <= 0):
            raise SamplingError("a sampled reference node has zero selection probability")

        cost = SamplingCost()
        cost.merge_engine(self._engine)
        return ReferenceSample(
            nodes=nodes,
            frequencies=weights,
            probabilities=probabilities,
            weighted=True,
            population_size=None,
            cost=cost,
        )
