"""Whole-graph reference sampling (Algorithm 3).

When ``|V_{a∪b}|`` and ``h`` are large, a random node of the whole graph is
likely to lie inside ``V^h_{a∪b}``, so one can simply draw nodes uniformly
from ``V`` and keep those whose h-vicinity contains an event node.  Each
tested candidate costs one h-hop BFS; the expected number of wasted tests is
``n·|V|/N − n``, so the strategy is only recommended for large event sets and
high vicinity levels (the paper suggests h = 3 and ``|V_{a∪b}|`` above ~200k
on the Twitter graph).

The acceptance order is recorded as the sample's ``draw_order``; the
progressive top-k engine's rounds are prefixes of it, so a top-k call draws
exactly what one :meth:`WholeGraphSampler.sample` call draws.
"""

from __future__ import annotations


import numpy as np

from repro.exceptions import SamplingError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import BFSEngine
from repro.sampling.base import ReferenceSample, ReferenceSampler, SamplingCost
from repro.utils.rng import RandomState
from repro.utils.validation import check_positive_int


class WholeGraphSampler(ReferenceSampler):
    """Uniform sampling over ``V`` with an in-vicinity eligibility test.

    Parameters
    ----------
    max_draw_factor:
        Safety valve: the sampler gives up (raising :class:`SamplingError`)
        after ``max_draw_factor * sample_size`` candidate draws, which only
        triggers when the event set is so small that Whole-graph sampling is
        the wrong tool (the paper applies it "in limited scenarios").
    """

    name = "whole_graph"

    def __init__(self, graph: CSRGraph, random_state: RandomState = None,
                 max_draw_factor: int = 200) -> None:
        super().__init__(graph, random_state)
        self._engine = BFSEngine(graph)
        self._max_draw_factor = check_positive_int(max_draw_factor, "max_draw_factor")

    def sample(self, event_nodes: np.ndarray, level: int,
               sample_size: int) -> ReferenceSample:
        event_nodes = self._validate(event_nodes, level, sample_size)
        self._engine.reset_counters()
        event_marker = np.zeros(self.graph.num_nodes, dtype=bool)
        event_marker[event_nodes] = True

        accepted: dict = {}  # insertion-ordered: the draw order
        draws = out_of_sight = 0
        max_draws = self._max_draw_factor * sample_size
        num_nodes = self.graph.num_nodes
        # Sampling without replacement from V, implemented by drawing with
        # replacement and skipping repeats: repeats are vanishingly rare for
        # the graph sizes this sampler targets, and the eligible subset stays
        # uniformly distributed either way.
        while len(accepted) < sample_size and draws < max_draws:
            draws += 1
            candidate = int(self.rng.integers(0, num_nodes))
            if candidate in accepted:
                continue
            overlap, _ = self._engine.count_marked_in_vicinity(
                candidate, level, event_marker
            )
            if overlap > 0:
                accepted[candidate] = True
            else:
                out_of_sight += 1

        if len(accepted) < min(sample_size, 2):
            raise SamplingError(
                f"whole-graph sampling found only {len(accepted)} eligible "
                f"reference nodes in {draws} draws; the event set is too "
                "small for this sampler"
            )

        draw_order = np.fromiter(accepted, count=len(accepted), dtype=np.int64)
        cost = SamplingCost(out_of_sight_draws=out_of_sight)
        cost.merge_engine(self._engine)
        return ReferenceSample(
            nodes=np.sort(draw_order),
            frequencies=np.ones(draw_order.size, dtype=np.int64),
            probabilities=None,
            weighted=False,
            population_size=None,
            cost=cost,
            draw_order=draw_order,
        )
