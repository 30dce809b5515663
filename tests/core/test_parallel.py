"""Tests for repro.core.parallel — ranking with a thread-sharded density pass."""

import time

import pytest

from repro.core.batch import BatchTescEngine, rank_pairs
from repro.core.config import TescConfig
from repro.core.parallel import (
    ParallelBatchTescEngine,
    rank_pairs_parallel,
    resolve_workers,
)
from repro.service import pool
from repro.datasets.synthetic_dblp import make_dblp_like
from repro.events.attributed_graph import AttributedGraph
from repro.exceptions import (
    ConfigurationError,
    InsufficientSampleError,
    UnknownEventError,
)
from repro.graph.adjacency import Graph


@pytest.fixture(scope="module")
def dblp_workload():
    """A DBLP-like dataset plus its pair list (planted + background pairs)."""
    dataset = make_dblp_like(
        num_communities=12,
        community_size=40,
        num_positive_pairs=4,
        num_negative_pairs=4,
        num_background_keywords=12,
        random_state=11,
    )
    pairs = list(dataset.positive_pairs) + list(dataset.negative_pairs)
    background = dataset.background_events
    pairs += [
        (background[i], background[i + 1]) for i in range(0, len(background), 2)
    ]
    return dataset.attributed, pairs


def assert_rankings_identical(serial, parallel):
    assert len(serial) == len(parallel)
    for expected, actual in zip(serial, parallel):
        assert actual.rank == expected.rank
        assert actual.events == expected.events
        assert actual.score == expected.score
        assert actual.z_score == expected.z_score
        assert actual.p_value == expected.p_value
        assert actual.verdict is expected.verdict
        assert actual.num_reference_nodes == expected.num_reference_nodes
        assert actual.insufficient == expected.insufficient


class TestWorkerSweep:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_exhaustive_mode_identical_to_serial(self, dblp_workload, workers):
        """Worker-count sweep: verdicts *and* scores agree bit-for-bit with the
        serial engine when the shared sample is the whole population."""
        attributed, pairs = dblp_workload
        config = TescConfig(vicinity_level=1, sample_size=5000, random_state=3)
        serial = BatchTescEngine(attributed, config).rank_pairs(pairs)
        with ParallelBatchTescEngine(attributed, config, workers=workers) as engine:
            ranking = engine.rank_pairs(pairs)
            assert engine.stats.num_pairs == len(pairs)
        assert_rankings_identical(serial, ranking)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_sampled_mode_identical_to_serial(self, dblp_workload, workers):
        """The shared sample is drawn once, in the calling thread, so even
        sampled mode reproduces the serial engine exactly."""
        attributed, pairs = dblp_workload
        config = TescConfig(vicinity_level=1, sample_size=150, random_state=17)
        serial = BatchTescEngine(attributed, config).rank_pairs(pairs)
        with ParallelBatchTescEngine(attributed, config, workers=workers) as engine:
            ranking = engine.rank_pairs(pairs)
        assert_rankings_identical(serial, ranking)

    def test_shard_stats_recorded(self, dblp_workload):
        attributed, pairs = dblp_workload
        config = TescConfig(vicinity_level=1, sample_size=150, random_state=17)
        with ParallelBatchTescEngine(attributed, config, workers=2) as engine:
            ranking = engine.rank_pairs(pairs)
        assert ranking.stats.workers == 2
        assert ranking.stats.shards == 2
        assert ranking.stats.samples_drawn == 1
        # One column-sharded pass over the shared sample — the threads
        # split its columns, they do not repeat each other's traversal.
        assert ranking.stats.density_passes == 1


class TestParallelBehaviour:
    def test_workers_one_degrades_to_serial_in_process(self, dblp_workload,
                                                       monkeypatch):
        attributed, pairs = dblp_workload
        config = TescConfig(vicinity_level=1, sample_size=150, random_state=5)
        engine = ParallelBatchTescEngine(attributed, config, workers=1)

        def no_threads(*_args, **_kwargs):
            raise AssertionError("workers=1 must not start density threads")

        monkeypatch.setattr(pool, "pooled_density_matrix", no_threads)
        ranking = engine.rank_pairs(pairs)
        serial = BatchTescEngine(attributed, config).rank_pairs(pairs)
        assert_rankings_identical(serial, ranking)

    def test_top_k_and_sort_by(self, dblp_workload):
        attributed, pairs = dblp_workload
        config = TescConfig(vicinity_level=1, sample_size=150, random_state=5)
        serial = BatchTescEngine(attributed, config).rank_pairs(
            pairs, top_k=5, sort_by="abs_z"
        )
        with ParallelBatchTescEngine(attributed, config, workers=2) as engine:
            ranking = engine.rank_pairs(pairs, top_k=5, sort_by="abs_z")
        assert len(ranking) == 5
        assert_rankings_identical(serial, ranking)

    def test_one_shot_pair_iterable(self, dblp_workload):
        """Regression: the serial fallback must reuse the resolved pair list
        rather than re-resolving an already-drained iterator."""
        attributed, pairs = dblp_workload
        config = TescConfig(vicinity_level=1, sample_size=150, random_state=5)
        serial = BatchTescEngine(attributed, config).rank_pairs(pairs)
        engine = ParallelBatchTescEngine(attributed, config, workers=1)
        ranking = engine.rank_pairs(iter(pairs))
        assert_rankings_identical(serial, ranking)
        with ParallelBatchTescEngine(attributed, config, workers=2) as pooled:
            assert_rankings_identical(serial, pooled.rank_pairs(iter(pairs)))

    def test_convenience_wrappers(self, dblp_workload):
        attributed, pairs = dblp_workload
        serial = rank_pairs(
            attributed, pairs, vicinity_level=1, sample_size=150, random_state=5
        )
        via_workers_kwarg = rank_pairs(
            attributed, pairs, workers=2, vicinity_level=1,
            sample_size=150, random_state=5,
        )
        via_parallel = rank_pairs_parallel(
            attributed, pairs, workers=2, vicinity_level=1,
            sample_size=150, random_state=5,
        )
        assert_rankings_identical(serial, via_workers_kwarg)
        assert_rankings_identical(serial, via_parallel)

    def test_estimate_pairs_on_nodes_matches_serial_restriction(self):
        graph = Graph(8)
        graph.add_edges(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 2)]
        )
        attributed = AttributedGraph(
            graph, {"a": [0, 1, 2], "b": [1, 2, 3], "c": [5, 6, 7]}
        )
        config = TescConfig(vicinity_level=1, sampler="exhaustive", random_state=0)
        engine = BatchTescEngine(attributed, config)
        full = engine.rank_pairs([("a", "b")])
        shard = BatchTescEngine(attributed, config).estimate_pairs_on_nodes(
            [("a", "b")], full.sample.nodes, config
        )
        assert len(shard) == 1
        assert shard[0].score == full[0].score
        assert shard[0].z_score == full[0].z_score
        assert shard[0].verdict is full[0].verdict


class TestWarmPoolPerformance:
    def test_warm_workers_never_much_slower_than_serial(self):
        """Regression guard for parallel overhead: on the BENCH 50-pair
        workload, a warm workers=2 ranking must never fall behind serial by
        more than 1.5x (the retired fork-per-call pool lost 3-4x).
        Best-of-N on both sides to shrug off scheduler noise on small CI
        boxes."""
        dataset = make_dblp_like(
            num_communities=28, community_size=60,
            num_positive_pairs=13, num_negative_pairs=12,
            num_background_keywords=50, random_state=11,
        )
        attributed = dataset.attributed
        config = TescConfig(vicinity_level=1, sample_size=900, random_state=17)
        pairs = list(dataset.positive_pairs) + list(dataset.negative_pairs)
        names = attributed.event_names()
        taken = set(pairs)
        for i in range(len(names)):
            if len(pairs) >= 50:
                break
            pair = (names[i], names[(i * 7 + 3) % len(names)])
            if pair[0] != pair[1] and pair not in taken and pair[::-1] not in taken:
                pairs.append(pair)
                taken.add(pair)
        assert len(pairs) == 50

        def best_of(n, fn):
            best, result = float("inf"), None
            for _ in range(n):
                start = time.perf_counter()
                result = fn()
                best = min(best, time.perf_counter() - start)
            return best, result

        # Warm both sides before timing: the graph's indicator and vicinity
        # caches.
        serial_ranking = BatchTescEngine(attributed, config).rank_pairs(pairs)
        with ParallelBatchTescEngine(attributed, config, workers=2) as engine:
            engine.rank_pairs(pairs)

        t_serial, _ = best_of(
            3, lambda: BatchTescEngine(attributed, config).rank_pairs(pairs)
        )
        # Fresh engines per round: the warm state lives on the graph object,
        # exactly as a service would use it.
        t_warm, parallel_ranking = best_of(
            3,
            lambda: ParallelBatchTescEngine(
                attributed, config, workers=2
            ).rank_pairs(pairs),
        )
        assert_rankings_identical(serial_ranking, parallel_ranking)
        assert t_warm <= 1.5 * t_serial, (
            f"warm workers=2 took {t_warm * 1e3:.1f}ms vs serial "
            f"{t_serial * 1e3:.1f}ms ({t_warm / t_serial:.2f}x > 1.5x budget)"
        )


class TestErrorPropagation:
    def test_unknown_event_raises_in_parent(self, dblp_workload):
        attributed, _pairs = dblp_workload
        with ParallelBatchTescEngine(attributed, workers=2) as engine:
            with pytest.raises(UnknownEventError):
                engine.rank_pairs([("kw_pos_0_a", "missing")])

    def test_bad_sort_key_raises(self, dblp_workload):
        attributed, pairs = dblp_workload
        with ParallelBatchTescEngine(attributed, workers=2) as engine:
            with pytest.raises(ConfigurationError):
                engine.rank_pairs(pairs, sort_by="magic")
            with pytest.raises(ConfigurationError):
                engine.rank_pairs(pairs, on_insufficient="ignore")

    def test_weighted_sampler_rejected_in_parent(self, dblp_workload):
        attributed, pairs = dblp_workload
        config = TescConfig(vicinity_level=1, sampler="importance", random_state=1)
        with ParallelBatchTescEngine(attributed, config, workers=2) as engine:
            with pytest.raises(ConfigurationError):
                engine.rank_pairs(pairs)

    def test_insufficient_raise_propagates_from_worker(self):
        """Insufficient pairs surface the same way at workers=2."""
        graph = Graph(5)
        graph.add_edges([(0, 1), (1, 2)])
        attributed = AttributedGraph(
            graph, {"i1": [4], "i2": [4], "a": [0, 1], "b": [1, 2]}
        )
        config = TescConfig(vicinity_level=1, sampler="exhaustive", random_state=0)
        with ParallelBatchTescEngine(attributed, config, workers=2) as engine:
            ranking = engine.rank_pairs([("i1", "i2"), ("a", "b")])
            by_pair = {pair.events: pair for pair in ranking}
            assert by_pair[("i1", "i2")].insufficient
            with pytest.raises(InsufficientSampleError):
                engine.rank_pairs(
                    [("i1", "i2"), ("a", "b")], on_insufficient="raise"
                )


class TestShardingHelpers:
    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        assert resolve_workers(-1) >= 1
