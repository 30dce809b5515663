"""Tests for the draw-order prefixes the progressive top-k rounds slice."""

import numpy as np
import pytest

from repro.core.batch import event_universe
from repro.core.config import TescConfig
from repro.core.density import DensityComputer
from repro.core.topk import ProgressiveTopKEngine
from repro.events.attributed_graph import AttributedGraph
from repro.exceptions import SamplingError
from repro.sampling.base import ReferenceSample, deterministic_draw_order
from repro.sampling.batch_bfs import BatchBFSSampler, ExhaustiveSampler
from repro.sampling.registry import make_config_sampler
from repro.sampling.reject import RejectionSampler
from repro.sampling.whole_graph import WholeGraphSampler


@pytest.fixture
def csr(random_graph):
    return random_graph.to_csr()


@pytest.fixture
def universe():
    return np.arange(0, 80)


@pytest.fixture
def attributed(random_graph):
    # The event union is exactly the ``universe`` fixture's node range.
    return AttributedGraph(
        random_graph, {"a": range(0, 40), "b": range(30, 60), "c": range(50, 80)}
    )


def _config(sampler, **kwargs):
    kwargs.setdefault("sample_size", 60)
    return TescConfig(
        sampler=sampler, topk_initial_sample_size=8, random_state=11, **kwargs
    )


def _round_nodes(monkeypatch):
    """Record the reference nodes of every density matrix a round builds."""
    seen = []
    for name in ("density_matrix", "append_columns"):
        original = getattr(DensityComputer, name)

        def recording(self, *args, _original=original, **kwargs):
            matrix = _original(self, *args, **kwargs)
            seen.append(matrix.reference_nodes.copy())
            return matrix

        monkeypatch.setattr(DensityComputer, name, recording)
    return seen


def _draw_order(sample):
    if sample.draw_order is not None:
        return sample.draw_order
    return deterministic_draw_order(sample.nodes)


class TestDrawOrderField:
    def test_draw_order_must_be_permutation(self):
        with pytest.raises(SamplingError, match="permutation"):
            ReferenceSample(
                nodes=np.array([1, 2, 3]),
                frequencies=np.ones(3, dtype=np.int64),
                draw_order=np.array([1, 2, 4]),
            )

    def test_samplers_record_draw_order(self, csr, universe):
        for sampler in (
            BatchBFSSampler(csr, random_state=3),
            WholeGraphSampler(csr, random_state=3),
            RejectionSampler(csr, random_state=3),
        ):
            sample = sampler.sample(universe, 1, 40)
            assert sample.draw_order is not None
            assert np.array_equal(np.sort(sample.draw_order), sample.nodes)

    def test_exhaustive_has_no_draw_order(self, csr, universe):
        sample = ExhaustiveSampler(csr, random_state=3).sample(universe, 1)
        assert sample.draw_order is None

    def test_deterministic_order_is_content_keyed(self):
        nodes = np.array([5, 9, 2, 40, 17])
        first = deterministic_draw_order(nodes)
        second = deterministic_draw_order(nodes[::-1].copy())
        assert np.array_equal(first, second)
        assert np.array_equal(np.sort(first), np.sort(nodes))


class TestPrefixInvariant:
    """Each top-k round's reference nodes are a prefix of the one-shot
    sample's draw order, and the last round is that whole sample."""

    @pytest.mark.parametrize(
        "sampler", ["batch_bfs", "whole_graph", "exhaustive"],
    )
    def test_prefixes_nest_and_full_matches_one_shot(
        self, attributed, universe, monkeypatch, sampler
    ):
        config = _config(sampler)
        assert np.array_equal(
            event_universe(attributed, attributed.event_names()), universe
        )
        one_shot = make_config_sampler(attributed, config).sample(
            universe, 1, config.sample_size
        )
        order = _draw_order(one_shot)
        seen = _round_nodes(monkeypatch)
        ranking = ProgressiveTopKEngine(attributed, config).top_k(1)
        assert len(seen) == len(ranking.rounds) >= 2
        for nodes, round_ in zip(seen, ranking.rounds):
            assert nodes.size == round_.sample_size
            assert np.array_equal(nodes, order[: nodes.size])
        assert np.array_equal(seen[-1], order)
        assert np.array_equal(ranking.sample.nodes, one_shot.nodes)
        assert ranking.topk_stats.budget == one_shot.num_distinct

    def test_eager_growth_reveals_only(self, attributed):
        """Rounds reveal prefixes of the call's one draw; no round draws more,
        so a later call's draw equals the first call's by content."""
        engine = ProgressiveTopKEngine(attributed, _config("whole_graph"))
        first = engine.top_k(1)
        second = engine.top_k(2)
        assert np.array_equal(second.sample.nodes, first.sample.nodes)
        assert np.array_equal(second.sample.draw_order, first.sample.draw_order)
        assert len(first.rounds) >= 2
        assert first.rounds[-1].sample_size == first.sample.num_distinct
