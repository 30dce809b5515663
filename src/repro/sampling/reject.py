"""Rejection sampling of reference nodes (Procedure RejectSamp).

RejectSamp draws an event node ``v`` with probability proportional to
``|V^h_v|``, draws a node ``u`` uniformly from ``V^h_v``, then accepts ``u``
with probability ``1 / |V^h_u ∩ V_{a∪b}|``.  Proposition 1 shows the accepted
nodes are uniform over ``V^h_{a∪b}``.

The paper's preliminary experiments found the procedure inefficient — the
acceptance probability is ``N / N_sum`` and vicinity overlap makes ``N_sum``
much larger than ``N`` on real graphs — which is what motivates the
importance-sampling estimator.  We implement it both as the historical
baseline and because it remains the only *exactly uniform* sampler that does
not enumerate the population.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import SamplingError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import BFSEngine
from repro.graph.vicinity import VicinityIndex
from repro.sampling.base import ReferenceSample, ReferenceSampler, SamplingCost
from repro.utils.rng import RandomState


class RejectionSampler(ReferenceSampler):
    """Exactly-uniform reference sampling via rejection (RejectSamp).

    Parameters
    ----------
    graph:
        The CSR graph.
    vicinity_index:
        Pre-computed ``|V^h_v|`` index; created lazily when not supplied.
    max_attempts_per_node:
        Safety valve: the expected number of attempts per accepted node is
        ``N_sum / N``; once the sampler has made this many attempts per
        requested node it stops.  If the population ``V^h_{a∪b}`` then has
        at most ``sample_size`` nodes, the whole population is the sample
        (as with ``batch_bfs``); otherwise it raises :class:`SamplingError`
        instead of looping forever on pathological inputs.

    Notes
    -----
    A draw stalls when ``sample_size`` acceptances in a row add no new
    node.  The sampler then enumerates the population once (no random
    draws); if it holds fewer than ``sample_size`` nodes, no draw can
    finish and the population is returned at once, as it would be once the
    budget ran out.  Otherwise the loop goes on with the same random stream,
    so every draw the loop finishes is the one it would have made anyway.
    """

    name = "reject"

    def __init__(
        self,
        graph: CSRGraph,
        vicinity_index: Optional[VicinityIndex] = None,
        random_state: RandomState = None,
        max_attempts_per_node: int = 1000,
    ) -> None:
        super().__init__(graph, random_state)
        self._engine = BFSEngine(graph)
        self._index = vicinity_index
        if max_attempts_per_node < 1:
            raise SamplingError("max_attempts_per_node must be positive")
        self._max_attempts_per_node = max_attempts_per_node

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
        total = sizes.sum()
        if total <= 0:
            raise SamplingError("event nodes have empty vicinities")
        # Cumulative distribution over event nodes: O(log |Va∪b|) per draw.
        cumulative = np.cumsum(sizes / total)

        event_marker = np.zeros(self.graph.num_nodes, dtype=bool)
        event_marker[event_nodes] = True

        accepted: dict = {}
        rejections = 0
        attempts = 0
        repeats = 0  # acceptances in a row that added no new node
        population: Optional[np.ndarray] = None
        max_attempts = self._max_attempts_per_node * sample_size
        while len(accepted) < sample_size and attempts < max_attempts:
            attempts += 1
            # Step 1: pick an event node proportionally to its vicinity size.
            pick = int(np.searchsorted(cumulative, self.rng.random(), side="right"))
            pick = min(pick, event_nodes.size - 1)
            source = int(event_nodes[pick])
            # Step 2: uniform node from the event node's vicinity.
            vicinity = self._engine.vicinity(source, level)
            candidate = int(vicinity[int(self.rng.integers(0, vicinity.size))])
            # Step 3: count event nodes seen from the candidate.
            overlap, _size = self._engine.count_marked_in_vicinity(
                candidate, level, event_marker
            )
            if overlap <= 0:
                raise SamplingError(
                    "candidate drawn from an event vicinity sees no event nodes; "
                    "the graph or vicinity index is inconsistent"
                )
            # Step 4: accept with probability 1 / overlap.
            if self.rng.random() < 1.0 / overlap:
                if candidate not in accepted:
                    accepted[candidate] = 1
                    repeats = 0
                    continue
                repeats += 1
                if repeats == sample_size and population is None:
                    population = self._engine.multi_source_vicinity(
                        event_nodes, level
                    )
                    if population.size < sample_size:
                        break
            else:
                rejections += 1

        cost = SamplingCost(rejections=rejections)
        population_size = None
        if len(accepted) < sample_size:
            # A sample no smaller than the population is the whole of it, as
            # batch_bfs returns it.
            if population is None:
                population = self._engine.multi_source_vicinity(event_nodes, level)
            if population.size > sample_size:
                raise SamplingError(
                    f"rejection sampling exceeded {max_attempts} attempts while "
                    f"collecting {sample_size} reference nodes (got "
                    f"{len(accepted)}); use importance or batch_bfs sampling "
                    "for this input"
                )
            nodes, draw_order = np.sort(population), None
            population_size = int(population.size)
        else:
            # ``accepted`` is insertion-ordered, i.e. the acceptance sequence
            # of the rejection loop — an exchangeable order whose prefixes
            # are themselves uniform samples (the progressive top-k rounds).
            draw_order = np.fromiter(accepted, count=len(accepted), dtype=np.int64)
            nodes = np.sort(draw_order)
        cost.merge_engine(self._engine)
        return ReferenceSample(
            nodes=nodes,
            frequencies=np.ones(nodes.size, dtype=np.int64),
            probabilities=None,
            weighted=False,
            population_size=population_size,
            cost=cost,
            draw_order=draw_order,
        )
