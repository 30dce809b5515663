"""Engine-level agreement tests for the dispatched Kendall kernels.

`BatchTescEngine.rank_pairs` and post-commit session `rank` outputs
(scores, z-scores, verdicts) must be identical whichever concordance kernel
computes them, for every sampler × worker-count combination — the kernels
return the same exact integer ``S``, so this is a bit-identity property,
not an approximation.  The ``force_kernel`` fixture pins the facades and
the pair batcher to one kernel.  The library itself picks the kernel from
observable input properties: the facades from the input size, the batcher
from the two rows' distinct-value counts against the pair's size
(contingency table while ``Kx·Ky <= c·n``, merge sort otherwise).
"""

import numpy as np
import pytest

from repro import open_session
from repro.core.batch import BatchTescEngine
from repro.core.config import TescConfig
from repro.core.estimators import PairEstimateBatcher, plain_estimate
from repro.datasets.synthetic_dblp import make_dblp_like
from repro.service.engine import pair_record
from repro.service.protocol import BadRequestError
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
    def test_rank_pairs_kernel_invariant(self, dblp_workload, sampler,
                                         force_kernel):
        """Naive, fast, table and auto kernels produce bit-identical
        rankings — auto routes these tie-heavy level-1 pairs to the table,
        so this also pins the default configuration against the pre-kernel
        output."""
        dataset, pairs = dblp_workload
        config = TescConfig(
            vicinity_level=1, sample_size=400, random_state=5, sampler=sampler,
        )
        rankings = {}
        for kernel in ("naive", "fast", "table", "auto"):
            force_kernel(kernel)
            engine = BatchTescEngine(dataset.attributed, config)
            rankings[kernel] = engine.rank_pairs(pairs)
        assert_rankings_identical(rankings["naive"], rankings["fast"])
        assert_rankings_identical(rankings["naive"], rankings["table"])
        assert_rankings_identical(rankings["naive"], rankings["auto"])

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_sweep_with_fast_kernel(self, dblp_workload, workers,
                                           force_kernel):
        """rank_pairs(workers=1/2/4) is unchanged by the new kernels: every
        worker count with the forced-fast or forced-table kernel reproduces
        the serial naive-kernel ranking bit for bit."""
        dataset, pairs = dblp_workload
        config = TescConfig(vicinity_level=1, sample_size=300, random_state=11)
        force_kernel("naive")
        serial = BatchTescEngine(dataset.attributed, config).rank_pairs(pairs)
        for kernel in ("fast", "table"):
            force_kernel(kernel)
            ranking = BatchTescEngine(
                dataset.attributed, config, workers=workers
            ).rank_pairs(pairs)
            assert_rankings_identical(serial, ranking)


class TestSessionKernelAgreement:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_streaming_verdicts_kernel_invariant(self, dblp_workload, workers,
                                                 force_kernel):
        """Sessions over identical delta streams — forced naive, forced
        fast and forced table — agree on every score, z-score and verdict
        after every commit, carried-forward density columns included."""
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
            force_kernel(kernel)
            config = TescConfig(vicinity_level=1, sample_size=250, random_state=13)
            with open_session(
                dataset.graph.copy(), config,
                events=dataset.attributed.events.copy(), workers=workers,
            ) as session:
                answers = [session.rank(monitored)["pairs"]]
                for batch in batches:
                    session.commit(batch)
                    answers.append(session.rank(monitored)["pairs"])
                return answers

        naive = run("naive")
        assert naive == run("fast")
        assert naive == run("table")


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
        batcher.estimate_pairs([0, 2], [1, 3])
        assert not hasattr(batcher, "_signs")
        assert set(batcher._rows) == {0, 1, 2, 3}
        for state in batcher._rows.values():
            assert state.codes.ndim == 1
            assert state.codes.size == n
            assert state.codes.nbytes == 8 * n  # int64 rank vector, not n×n signs

    @pytest.mark.parametrize("kernel", ["naive", "fast", "table", "auto"])
    def test_matches_plain_estimate_on_subsets(self, kernel, force_kernel):
        """The pair's population is a column subset: the 50 columns where
        both rows are 0 leave it."""
        rng = np.random.default_rng(9)
        matrix = np.round(rng.random((3, 230)), 1)  # heavy ties
        outside = rng.choice(230, size=50, replace=False)
        matrix[:, outside] = 0.0
        population = np.flatnonzero((matrix[0] != 0) | (matrix[2] != 0))
        assert 170 <= population.size <= 180
        direct = plain_estimate(matrix[0, population], matrix[2, population])
        force_kernel(kernel)
        scores = PairEstimateBatcher(matrix).estimate_pairs([0], [2])
        assert scores.n[0] == direct.num_reference_nodes
        assert scores.estimate[0] == direct.estimate
        assert scores.z_score[0] == direct.z_score
        assert not scores.degenerate[0]


class TestConfigValidation:
    """The kernel is not a config setting: the retired fields are rejected
    rather than silently ignored."""

    def test_rejects_unknown_kernel(self):
        with pytest.raises(TypeError, match="kendall_kernel"):
            TescConfig(kendall_kernel="naive")

    def test_rejects_bad_crossover(self):
        with pytest.raises(TypeError, match="kendall_crossover"):
            TescConfig(kendall_crossover=500)

    def test_session_override_rejected(self, dblp_workload):
        dataset, pairs = dblp_workload
        config = TescConfig(vicinity_level=1, sample_size=120, random_state=3)
        with open_session(dataset.attributed, config) as session:
            with pytest.raises(BadRequestError, match="kendall_kernel"):
                session.rank(pairs[:1], kendall_kernel="naive")
