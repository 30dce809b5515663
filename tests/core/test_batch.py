"""Tests for repro.core.batch — the batch pair-ranking engine."""

import numpy as np
import pytest

from repro.core.batch import BatchTescEngine, PairRanking, RankedPair, rank_pairs
from repro.core.config import TescConfig
from repro.core.tesc import TescTester
from repro.datasets.synthetic_dblp import make_dblp_like
from repro.exceptions import ConfigurationError, InsufficientSampleError, UnknownEventError
from repro.events.attributed_graph import AttributedGraph
from repro.graph.adjacency import Graph
from repro.graph.generators import community_ring_graph
from repro.stats.hypothesis import CorrelationVerdict


@pytest.fixture(scope="module")
def clustered_attributed():
    """Ring-of-communities graph with attracting, repulsing and noise events."""
    graph = community_ring_graph(10, 60, 6.0, 20, random_state=5)
    rng = np.random.default_rng(5)
    community = lambda index: np.arange(index * 60, (index + 1) * 60)
    nodes_x = np.concatenate([
        rng.choice(community(0), 30, replace=False),
        rng.choice(community(1), 15, replace=False),
    ])
    nodes_y = np.concatenate([
        rng.choice(community(0), 30, replace=False),
        rng.choice(community(1), 15, replace=False),
    ])
    nodes_far = np.concatenate([
        rng.choice(community(5), 30, replace=False),
        rng.choice(community(6), 15, replace=False),
    ])
    return AttributedGraph(graph, {"x": nodes_x, "y": nodes_y, "far": nodes_far})


@pytest.fixture(scope="module")
def dblp_dataset():
    """A small DBLP-like dataset with 25 planted and 50 background keywords."""
    return make_dblp_like(
        num_communities=28,
        community_size=60,
        num_positive_pairs=13,
        num_negative_pairs=12,
        num_background_keywords=50,
        random_state=11,
    )


def fifty_pairs(dataset):
    """25 planted pairs + 25 background pairs = 50 pairs (acceptance floor)."""
    pairs = list(dataset.positive_pairs) + list(dataset.negative_pairs)
    background = dataset.background_events
    pairs += [
        (background[i], background[i + 1]) for i in range(0, len(background), 2)
    ]
    assert len(pairs) >= 50
    return pairs


class TestExactAgreement:
    def test_exhaustive_mode_matches_looped_tester_exactly(self, clustered_attributed):
        """Shared-sample restriction reproduces per-pair populations bit-for-bit."""
        config = TescConfig(vicinity_level=1, sampler="exhaustive", random_state=1)
        ranking = BatchTescEngine(clustered_attributed, config).rank_pairs("all")
        tester = TescTester(clustered_attributed, config)
        assert len(ranking) == 3
        for pair in ranking:
            reference = tester.test(pair.event_a, pair.event_b)
            assert pair.score == reference.score
            assert pair.z_score == reference.z_score
            assert pair.p_value == reference.p_value
            assert pair.verdict is reference.verdict
            assert pair.num_reference_nodes == reference.num_reference_nodes

    def test_exhaustive_agreement_across_levels(self, clustered_attributed):
        for level in (1, 2):
            config = TescConfig(
                vicinity_level=level, sampler="exhaustive", random_state=1
            )
            ranking = BatchTescEngine(clustered_attributed, config).rank_pairs("all")
            tester = TescTester(clustered_attributed, config)
            for pair in ranking:
                reference = tester.test(pair.event_a, pair.event_b)
                assert pair.score == reference.score
                assert pair.verdict is reference.verdict


class TestDblpAcceptance:
    def test_fifty_pairs_same_verdicts_with_one_sampling_pass(self, dblp_dataset):
        """The ISSUE acceptance: >= 50 DBLP pairs, verdicts equal to the looped
        per-pair tester at a fixed seed, with sampling + vicinity work done at
        most once per level."""
        attributed = dblp_dataset.attributed
        pairs = fifty_pairs(dblp_dataset)
        # A sample size above the universe population makes both engines
        # exhaustive over their respective populations, so agreement is exact
        # rather than merely probable.
        config = TescConfig(vicinity_level=1, sample_size=5000, random_state=3)

        ranking = BatchTescEngine(attributed, config).rank_pairs(pairs)
        assert len(ranking) == len(pairs)
        assert ranking.stats.density_passes == 1
        # One BFS per shared reference node — not per pair.
        assert ranking.stats.density_bfs_calls == ranking.sample.num_distinct

        tester = TescTester(attributed, config)
        batch_verdicts = {pair.events: pair.verdict for pair in ranking}
        for event_a, event_b in pairs:
            reference = tester.test(event_a, event_b)
            assert batch_verdicts[(event_a, event_b)] is reference.verdict

    def test_planted_pairs_detected_with_moderate_sample(self, dblp_dataset):
        attributed = dblp_dataset.attributed
        config = TescConfig(vicinity_level=1, sample_size=400, random_state=7)
        ranking = BatchTescEngine(attributed, config).rank_pairs(
            list(dblp_dataset.positive_pairs) + list(dblp_dataset.negative_pairs)
        )
        verdict_of = {pair.events: pair.verdict for pair in ranking}
        for planted in dblp_dataset.positive_pairs:
            assert verdict_of[planted] is CorrelationVerdict.POSITIVE
        for planted in dblp_dataset.negative_pairs:
            assert verdict_of[planted] is CorrelationVerdict.NEGATIVE
        # Ranking by score puts every positive pair above every negative pair.
        positions = {pair.events: pair.rank for pair in ranking}
        best_negative = min(positions[p] for p in dblp_dataset.negative_pairs)
        worst_positive = max(positions[p] for p in dblp_dataset.positive_pairs)
        assert worst_positive < best_negative


class TestRankingBehaviour:
    def test_deterministic_across_engines(self, clustered_attributed):
        config = TescConfig(vicinity_level=1, sample_size=200, random_state=9)
        first = BatchTescEngine(clustered_attributed, config).rank_pairs("all")
        second = BatchTescEngine(clustered_attributed, config).rank_pairs("all")
        assert [pair.events for pair in first] == [pair.events for pair in second]
        assert [pair.score for pair in first] == [pair.score for pair in second]
        assert [pair.z_score for pair in first] == [pair.z_score for pair in second]

    def test_sort_keys_and_top_k(self, clustered_attributed):
        config = TescConfig(vicinity_level=1, sample_size=200, random_state=9)
        engine = BatchTescEngine(clustered_attributed, config)
        by_score = engine.rank_pairs("all", sort_by="score")
        scores = [pair.score for pair in by_score]
        assert scores == sorted(scores, reverse=True)
        assert [pair.rank for pair in by_score] == [1, 2, 3]

        by_p = engine.rank_pairs("all", sort_by="p_value")
        p_values = [pair.p_value for pair in by_p]
        assert p_values == sorted(p_values)

        by_abs = engine.rank_pairs("all", sort_by="abs_z")
        abs_z = [abs(pair.z_score) for pair in by_abs]
        assert abs_z == sorted(abs_z, reverse=True)

        top = engine.rank_pairs("all", top_k=1)
        assert len(top) == 1
        assert top[0].rank == 1

    def test_ranking_stats_are_per_call(self, clustered_attributed):
        config = TescConfig(vicinity_level=1, sample_size=200, random_state=9)
        engine = BatchTescEngine(clustered_attributed, config)
        first = engine.rank_pairs([("x", "y")])
        assert first.stats.num_pairs == 1
        second = engine.rank_pairs("all")
        # The earlier ranking's stats must not be mutated by later calls.
        assert first.stats.num_pairs == 1
        assert second.stats.num_pairs == 3
        assert first.stats.density_passes == second.stats.density_passes == 1

    def test_pair_order_does_not_change_score(self, clustered_attributed):
        config = TescConfig(vicinity_level=1, sample_size=200, random_state=9)
        forward = BatchTescEngine(clustered_attributed, config).rank_pairs(
            [("x", "y")]
        )
        backward = BatchTescEngine(clustered_attributed, config).rank_pairs(
            [("y", "x")]
        )
        assert forward[0].score == backward[0].score

    def test_explicit_pairs_and_convenience_wrapper(self, clustered_attributed):
        ranking = rank_pairs(
            clustered_attributed, [("x", "y")], vicinity_level=1,
            sample_size=200, random_state=9,
        )
        assert isinstance(ranking, PairRanking)
        assert len(ranking) == 1
        assert ranking[0].events == ("x", "y")
        assert ranking[0].verdict is CorrelationVerdict.POSITIVE

    def test_render_and_records(self, clustered_attributed):
        config = TescConfig(vicinity_level=1, sample_size=150, random_state=2)
        ranking = BatchTescEngine(clustered_attributed, config).rank_pairs("all")
        text = ranking.render()
        assert "verdict" in text and "rank" in text
        records = ranking.as_records()
        assert len(records) == 3
        assert records[0]["rank"] == 1
        counts = ranking.verdict_counts()
        assert sum(counts.values()) == 3


class TestDegenerateInputs:
    def test_unknown_event_raises(self, clustered_attributed):
        engine = BatchTescEngine(clustered_attributed)
        with pytest.raises(UnknownEventError):
            engine.rank_pairs([("x", "missing")])

    def test_all_needs_at_least_two_events(self):
        graph = Graph(4)
        graph.add_edges([(0, 1), (1, 2)])
        attributed = AttributedGraph(graph, {"only": [0, 1]})
        with pytest.raises(ConfigurationError):
            BatchTescEngine(attributed).rank_pairs("all")

    def test_self_pair_rejected(self, clustered_attributed):
        engine = BatchTescEngine(clustered_attributed)
        with pytest.raises(ConfigurationError):
            engine.rank_pairs([("x", "x")])

    def test_bad_sort_key_and_insufficient_mode(self, clustered_attributed):
        engine = BatchTescEngine(clustered_attributed)
        with pytest.raises(ConfigurationError):
            engine.rank_pairs("all", sort_by="magic")
        with pytest.raises(ConfigurationError):
            engine.rank_pairs("all", on_insufficient="ignore")

    def test_weighted_sampler_rejected(self, clustered_attributed):
        config = TescConfig(vicinity_level=1, sampler="importance", random_state=1)
        with pytest.raises(ConfigurationError):
            BatchTescEngine(clustered_attributed, config).rank_pairs("all")

    def test_insufficient_population_kept_as_independent(self):
        # Two events stacked on one isolated node: the pair's reference
        # population is that single node, so no estimate is possible.
        graph = Graph(5)
        graph.add_edges([(0, 1), (1, 2)])
        attributed = AttributedGraph(
            graph, {"i1": [4], "i2": [4], "a": [0, 1], "b": [1, 2]}
        )
        config = TescConfig(vicinity_level=1, sampler="exhaustive", random_state=0)
        engine = BatchTescEngine(attributed, config)
        ranking = engine.rank_pairs([("i1", "i2"), ("a", "b")])
        by_pair = {pair.events: pair for pair in ranking}
        starved = by_pair[("i1", "i2")]
        assert starved.insufficient
        assert starved.verdict is CorrelationVerdict.INDEPENDENT
        assert starved.num_reference_nodes == 1
        assert not by_pair[("a", "b")].insufficient
        with pytest.raises(InsufficientSampleError):
            engine.rank_pairs([("i1", "i2")], on_insufficient="raise")

    def test_degenerate_density_vectors_are_independent(self):
        # Both events everywhere: densities are constant 1.0, so the tie
        # structure is degenerate and the z-score is pinned to zero.
        graph = Graph(6)
        graph.add_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        attributed = AttributedGraph(
            graph, {"all1": range(6), "all2": range(6)}
        )
        config = TescConfig(vicinity_level=1, sampler="exhaustive", random_state=0)
        ranking = BatchTescEngine(attributed, config).rank_pairs([("all1", "all2")])
        pair = ranking[0]
        assert pair.degenerate
        assert pair.z_score == 0.0
        assert pair.verdict is CorrelationVerdict.INDEPENDENT


class TestRankedPairApi:
    def test_str_and_properties(self, clustered_attributed):
        config = TescConfig(vicinity_level=1, sample_size=150, random_state=2)
        ranking = BatchTescEngine(clustered_attributed, config).rank_pairs("all")
        pair = ranking[0]
        assert isinstance(pair, RankedPair)
        assert pair.events == (pair.event_a, pair.event_b)
        assert "score" in str(pair)
        assert ranking.significant_pairs() == tuple(
            p for p in ranking if p.significant
        )
