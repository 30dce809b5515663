"""Engine-level agreement tests for the size-dispatched Kendall kernels.

`BatchTescEngine.rank_pairs` and post-commit session `rank` outputs
(scores, z-scores, verdicts) must be identical whichever concordance kernel
computes them, for every sampler × worker-count combination — the kernels
return the same exact integer ``S``, so this is a bit-identity property,
not an approximation.
"""

import numpy as np
import pytest

from repro import open_session
from repro.core.batch import BatchTescEngine
from repro.core.config import TescConfig
from repro.core.estimators import PairEstimateBatcher, plain_estimate
from repro.core.parallel import ParallelBatchTescEngine
from repro.datasets.synthetic_dblp import make_dblp_like
from repro.exceptions import ConfigurationError
from repro.service.engine import pair_record
from repro.streaming import Delta


@pytest.fixture(scope="module")
def dblp_workload():
    """A DBLP-like dataset plus its pair list (planted + background pairs)."""
    dataset = make_dblp_like(
        num_communities=10,
        community_size=40,
        num_positive_pairs=3,
        num_negative_pairs=3,
        num_background_keywords=8,
        random_state=23,
    )
    pairs = list(dataset.positive_pairs) + list(dataset.negative_pairs)
    background = dataset.background_events
    pairs += [
        (background[i], background[i + 1]) for i in range(0, len(background), 2)
    ]
    return dataset, pairs


def assert_rankings_identical(expected, actual):
    assert len(expected) == len(actual)
    for left, right in zip(expected, actual):
        assert right.rank == left.rank
        assert right.events == left.events
        assert right.score == left.score
        assert right.z_score == left.z_score
        assert right.p_value == left.p_value
        assert right.verdict is left.verdict
        assert right.num_reference_nodes == left.num_reference_nodes


class TestBatchEngineKernelAgreement:
    @pytest.mark.parametrize("sampler", ["batch_bfs", "exhaustive", "whole_graph"])
    def test_rank_pairs_kernel_invariant(self, dblp_workload, sampler):
        """Naive, fast and auto kernels produce bit-identical rankings —
        at n=900-ish sample sizes auto routes to the fast path, so this
        also pins the default configuration against the pre-kernel output."""
        dataset, pairs = dblp_workload
        rankings = {}
        for kernel in ("naive", "fast", "auto"):
            config = TescConfig(
                vicinity_level=1, sample_size=400, random_state=5,
                sampler=sampler, kendall_kernel=kernel,
            )
            engine = BatchTescEngine(dataset.attributed, config)
            rankings[kernel] = engine.rank_pairs(pairs)
        assert_rankings_identical(rankings["naive"], rankings["fast"])
        assert_rankings_identical(rankings["naive"], rankings["auto"])

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_sweep_with_fast_kernel(self, dblp_workload, workers):
        """rank_pairs(workers=1/2/4) is unchanged by the new kernels: every
        worker count with the forced-fast kernel reproduces the serial
        naive-kernel ranking bit for bit."""
        dataset, pairs = dblp_workload
        naive_config = TescConfig(
            vicinity_level=1, sample_size=300, random_state=11,
            kendall_kernel="naive",
        )
        serial = BatchTescEngine(dataset.attributed, naive_config).rank_pairs(pairs)
        fast_config = naive_config.with_kernel("fast")
        with ParallelBatchTescEngine(
            dataset.attributed, fast_config, workers=workers
        ) as engine:
            ranking = engine.rank_pairs(pairs)
        assert_rankings_identical(serial, ranking)

    def test_crossover_override_dispatches_naive(self, dblp_workload):
        """A crossover above the sample size keeps auto on the naive path;
        either way the ranking is identical (dispatch is cost-only)."""
        dataset, pairs = dblp_workload
        high = TescConfig(
            vicinity_level=1, sample_size=200, random_state=7,
            kendall_crossover=10**6,
        )
        low = TescConfig(
            vicinity_level=1, sample_size=200, random_state=7,
            kendall_crossover=2,
        )
        ranking_high = BatchTescEngine(dataset.attributed, high).rank_pairs(pairs)
        ranking_low = BatchTescEngine(dataset.attributed, low).rank_pairs(pairs)
        assert_rankings_identical(ranking_high, ranking_low)


class TestSessionKernelAgreement:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_streaming_verdicts_kernel_invariant(self, dblp_workload, workers):
        """Two sessions over identical delta streams — one forced naive, one
        forced fast — agree on every score, z-score and verdict after every
        commit, carried-forward density columns included."""
        dataset, pairs = dblp_workload
        monitored = pairs[:6]
        rng = np.random.default_rng(31)
        num_nodes = dataset.attributed.num_nodes
        batches = []
        for _ in range(3):
            nodes = rng.integers(0, num_nodes, size=6)
            batches.append(
                [
                    Delta.edge_add(int(nodes[0]), int(nodes[1])),
                    Delta.edge_add(int(nodes[2]), int(nodes[3])),
                    Delta.edge_remove(int(nodes[0]), int(nodes[1])),
                    Delta.event_attach(monitored[0][0], int(nodes[4])),
                    Delta.event_detach(monitored[0][0], int(nodes[4])),
                    Delta.edge_add(int(nodes[4]), int(nodes[5])),
                ]
            )

        def run(kernel):
            config = TescConfig(
                vicinity_level=1, sample_size=250, random_state=13,
                kendall_kernel=kernel,
            )
            with open_session(
                dataset.graph.copy(), config,
                events=dataset.attributed.events.copy(), workers=workers,
            ) as session:
                answers = [session.rank(monitored)["pairs"]]
                for batch in batches:
                    session.commit(batch)
                    answers.append(session.rank(monitored)["pairs"])
                return answers

        assert run("naive") == run("fast")


class TestColumnCarryAcrossEventTuples:
    def test_event_tuple_change_recomputes_then_carries(self, dblp_workload):
        """Columns carry only between matrices over the same event tuple:
        dropping a pair whose events leave the tuple forces a full pass,
        and the next epoch over the shrunken tuple carries again."""
        dataset, pairs = dblp_workload
        config = TescConfig(vicinity_level=1, sample_size=200, random_state=3)
        with open_session(
            dataset.graph.copy(), config,
            events=dataset.attributed.events.copy(),
        ) as session:
            def carried():
                return session.metrics.value(
                    "tesc_density_columns_total", outcome="carried"
                )

            session.rank(pairs)
            before = carried()
            session.rank(pairs[:-1])
            assert carried() == before
            session.commit([Delta.event_attach(pairs[0][0], 0)])
            answer = session.rank(pairs[:-1])
            assert carried() > before
            reference = session.reference_ranking(pairs[:-1])
            assert answer["pairs"] == [pair_record(pair) for pair in reference]


class TestBatcherRankCache:
    def test_cache_is_linear_in_sample_size(self):
        """The satellite fix: the per-event cache is an O(n) rank vector,
        not an O(n²) sign matrix (and the sign-matrix cache is gone)."""
        n = 500
        rng = np.random.default_rng(3)
        matrix = np.round(rng.random((4, n)), 2)
        batcher = PairEstimateBatcher(matrix)
        batcher.estimate_pair(0, 1)
        batcher.estimate_pair(2, 3)
        assert not hasattr(batcher, "_signs")
        assert set(batcher._ranks) == {0, 1, 2, 3}
        for ranks in batcher._ranks.values():
            assert ranks.ndim == 1
            assert ranks.size == n
            assert ranks.nbytes == 8 * n  # int64 rank vector, not n×n signs

    @pytest.mark.parametrize("kernel", ["naive", "fast", "auto"])
    def test_matches_plain_estimate_on_subsets(self, kernel):
        rng = np.random.default_rng(9)
        matrix = np.round(rng.random((3, 230)), 1)  # heavy ties
        columns = np.sort(rng.choice(230, size=180, replace=False))
        batcher = PairEstimateBatcher(matrix, kernel=kernel)
        batched = batcher.estimate_pair(0, 2, columns)
        direct = plain_estimate(matrix[0, columns], matrix[2, columns])
        assert batched.estimate == direct.estimate
        assert batched.z_score == direct.z_score
        assert batched.concordance_sum == direct.concordance_sum
        assert batched.ties_a == direct.ties_a
        assert batched.ties_b == direct.ties_b


class TestConfigValidation:
    def test_rejects_unknown_kernel(self):
        with pytest.raises(ConfigurationError):
            TescConfig(kendall_kernel="blas")

    def test_rejects_bad_crossover(self):
        with pytest.raises(ConfigurationError):
            TescConfig(kendall_crossover=0)

    def test_with_kernel(self):
        config = TescConfig().with_kernel("fast", kendall_crossover=32)
        assert config.kendall_kernel == "fast"
        assert config.kendall_crossover == 32
        assert TescConfig().kendall_kernel == "auto"

    def test_with_kernel_preserves_configured_crossover(self):
        config = TescConfig(kendall_crossover=500)
        assert config.with_kernel("fast").kendall_crossover == 500
        assert config.with_kernel("auto").kendall_crossover == 500
        assert config.with_kernel("auto", kendall_crossover=None).kendall_crossover is None
