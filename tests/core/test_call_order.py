"""An engine's answer must not depend on what it was asked before.

The shared reference sample is a function of the population, the config
and the graph, so a second call on a long-lived engine for a different
event universe must return exactly what a fresh engine returns.
"""

from dataclasses import astuple

import numpy as np
import pytest

from repro.core.batch import BatchTescEngine
from repro.core.config import TescConfig
from repro.core.topk import ProgressiveTopKEngine
from repro.events import AttributedGraph
from repro.graph.generators import community_ring_graph

SAMPLERS = ["batch_bfs", "whole_graph", "exhaustive"]

#: The first pair set; the second one spans a different event universe.
FIRST = [("a", "b"), ("a", "e")]
SECOND = [("c", "d"), ("c", "e"), ("d", "e"), ("b", "d")]


@pytest.fixture(scope="module")
def attributed():
    graph = community_ring_graph(8, 40, 5.0, 10, random_state=3)
    return AttributedGraph(
        graph,
        {
            "a": range(0, 30),
            "b": range(10, 40),
            "c": range(80, 110),
            "d": range(95, 130),
            "e": range(200, 240),
        },
    )


def _config(sampler):
    return TescConfig(
        sampler=sampler, sample_size=60, topk_initial_sample_size=8,
        random_state=5,
    )


def _draw_order(sample):
    return None if sample.draw_order is None else sample.draw_order.tolist()


def _assert_same_answer(later, fresh):
    assert later.sample.nodes.tolist() == fresh.sample.nodes.tolist()
    assert _draw_order(later.sample) == _draw_order(fresh.sample)
    assert [astuple(pair) for pair in later] == [astuple(pair) for pair in fresh]


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_rank_pairs_is_call_order_independent(attributed, sampler):
    config = _config(sampler)
    engine = BatchTescEngine(attributed, config)
    engine.rank_pairs(FIRST)
    later = engine.rank_pairs(SECOND)
    fresh = BatchTescEngine(attributed, config).rank_pairs(SECOND)
    _assert_same_answer(later, fresh)


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_top_k_is_call_order_independent(attributed, sampler):
    config = _config(sampler)
    engine = ProgressiveTopKEngine(attributed, config)
    engine.top_k(1, FIRST)
    later = engine.top_k(2, SECOND)
    fresh = ProgressiveTopKEngine(attributed, config).top_k(2, SECOND)
    _assert_same_answer(later, fresh)
    assert len(later.rounds) >= 2
    assert later.rounds == fresh.rounds
    assert later.topk_stats.budget == fresh.topk_stats.budget
    np.testing.assert_array_equal(
        later.sample.nodes,
        BatchTescEngine(attributed, config).rank_pairs(SECOND).sample.nodes,
    )
