"""Tests for the progressive top-k engine and its CI-pruning machinery."""

import numpy as np
import pytest

from repro.core.batch import BatchTescEngine, resolve_pair_spec
from repro.core.config import TescConfig
from repro.core.density import DensityComputer
from repro.core.estimators import plain_estimate
from repro.core.topk import (
    TOPK_CONFIDENCE,
    TOPK_Z_STAR,
    ProgressiveTopKEngine,
    asymptotic_tau_sd,
    confidence_half_width,
    confidence_half_widths,
    draw_order,
    round_schedule,
    top_k_pairs,
)
from repro.datasets.synthetic_dblp import make_dblp_like
from repro.exceptions import ConfigurationError, DeadlineExceededError
from repro.graph.generators import community_ring_graph
from repro.events.attributed_graph import AttributedGraph
from repro.sampling.base import deterministic_draw_order
from repro.stats.normal import critical_z
from repro.utils import deadlines


# A small DBLP-like workload with planted structure: 2 positive pairs plus
# background keywords.  Budget 400 over an ~1.9k-node graph keeps the whole
# sampler x worker matrix fast while still running 3-4 progressive rounds.
DATASET = make_dblp_like(
    num_communities=24, community_size=60, num_positive_pairs=2,
    num_negative_pairs=1, num_background_keywords=4, random_state=13,
)

# A sharper variant for the pruning-behaviour tests: strongly co-occurring
# planted pairs separate from the background bulk within the first rounds.
SEPARABLE_DATASET = make_dblp_like(
    num_communities=24, community_size=60, num_positive_pairs=2,
    num_negative_pairs=1, num_background_keywords=4,
    cooccurrence_fraction=0.6, keyword_coverage=0.8, communities_per_pair=4,
    random_state=13,
)


def _separable_config(**kwargs):
    kwargs.setdefault("sample_size", 1500)
    kwargs.setdefault("topk_initial_sample_size", 128)
    return _config(**kwargs)


def _config(sampler="batch_bfs", **kwargs):
    kwargs.setdefault("vicinity_level", 1)
    kwargs.setdefault("sample_size", 400)
    kwargs.setdefault("topk_initial_sample_size", 64)
    kwargs.setdefault("random_state", 17)
    return TescConfig(sampler=sampler, **kwargs)


def _signature(pairs):
    return [
        (p.rank, p.events, p.score, p.z_score, p.p_value, p.verdict)
        for p in pairs
    ]


class TestRoundSchedule:
    def test_geometric_until_budget(self):
        assert round_schedule(256, 8000, 2.0) == [256, 512, 1024, 2048, 4096, 8000]

    def test_growth_factor_respected(self):
        sizes = round_schedule(100, 2000, 3.0)
        assert sizes[0] == 100 and sizes[-1] == 2000
        for small, large in zip(sizes, sizes[1:]):
            assert large <= max(small * 3, small + 1)

    def test_budget_below_initial_is_single_round(self):
        assert round_schedule(256, 100, 2.0) == [100]
        assert round_schedule(100, 100, 2.0) == [100]

    def test_fractional_growth_always_advances(self):
        sizes = round_schedule(2, 20, 1.2)
        assert sizes == sorted(set(sizes))
        assert sizes[-1] == 20

    def test_tiny_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            round_schedule(256, 1, 2.0)


class TestConfidenceBounds:
    def test_widths_shrink_monotonically_with_sample_size(self):
        widths = [
            confidence_half_width(n, n * 4, z_star=2.576)
            for n in (8, 32, 128, 512, 2048)
        ]
        assert widths == sorted(widths, reverse=True)
        assert all(width > 0 for width in widths)

    def test_projection_term_adds_slack(self):
        tight = confidence_half_width(100, 10_000, 2.576)
        loose = confidence_half_width(100, 100, 2.576)
        assert loose > tight > 2.576 * asymptotic_tau_sd(100)

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_tau_sd(1)
        with pytest.raises(ValueError):
            confidence_half_width(1, 10, 2.576)

    def test_array_widths_equal_the_scalar_reference_bit_for_bit(self):
        """The screening rounds' array form runs the scalar operations in
        the same order, so every width is the same float."""
        rng = np.random.default_rng(0)
        sizes = np.concatenate([np.arange(2, 400), rng.integers(2, 10**6, size=3000)])
        # Projections below the size are clamped up to it, as in the scalar.
        projected = np.concatenate([
            sizes[:398] * 4, sizes[398:] // rng.integers(1, 3, size=3000) * 3 - 5,
        ])
        for z_star in (TOPK_Z_STAR, 2.576):
            widths = confidence_half_widths(sizes, projected, z_star)
            assert widths.tolist() == [
                confidence_half_width(n, n_proj, z_star)
                for n, n_proj in zip(sizes.tolist(), projected.tolist())
            ]

    def test_z_star_is_the_critical_value_of_the_level(self):
        assert TOPK_Z_STAR == critical_z(1.0 - TOPK_CONFIDENCE, "two-sided")


class TestFullBudgetMatrix:
    """``top_k(matrix=...)``: rounds slice a handed-in full-budget matrix."""

    def _matrix(self, attributed, ranking, pairs="all"):
        events = sorted(
            {e for pair in resolve_pair_spec(attributed.event_names(), pairs)
             for e in pair}
        )
        return DensityComputer(attributed.csr).density_matrix(
            draw_order(ranking.sample), attributed.indicator_matrix(events), 1
        )

    def test_prefix_rounds_equal_per_round_counting(self):
        attributed = SEPARABLE_DATASET.attributed
        engine = ProgressiveTopKEngine(attributed, _separable_config())
        counted = engine.top_k(2)
        sliced = engine.top_k(
            2, sample=counted.sample, matrix=self._matrix(attributed, counted)
        )
        assert counted.topk_stats.pairs_pruned > 0
        assert _signature(sliced) == _signature(counted)
        assert sliced.rounds == counted.rounds
        assert sliced.topk_stats.density_bfs_calls == 0

    def test_in_process_call_counts_one_pass_in_draw_order(self, monkeypatch):
        seen = []
        original = DensityComputer.density_matrix

        def recording(self, nodes, *args, **kwargs):
            matrix = original(self, nodes, *args, **kwargs)
            seen.append(matrix.reference_nodes.copy())
            return matrix

        monkeypatch.setattr(DensityComputer, "density_matrix", recording)
        ranking = ProgressiveTopKEngine(
            SEPARABLE_DATASET.attributed, _separable_config()
        ).top_k(2)
        assert len(ranking.rounds) >= 3
        assert len(seen) == 1
        assert np.array_equal(seen[0], draw_order(ranking.sample))
        assert ranking.topk_stats.density_bfs_calls == ranking.topk_stats.budget

    def test_mismatched_matrix_rejected(self):
        attributed = SEPARABLE_DATASET.attributed
        engine = ProgressiveTopKEngine(attributed, _separable_config())
        ranking = engine.top_k(2)
        matrix = self._matrix(attributed, ranking)
        with pytest.raises(ConfigurationError):
            engine.top_k(2, sample=ranking.sample, matrix=matrix.prefix(10))


class TestValidation:
    def test_sort_by_must_be_score(self):
        engine = ProgressiveTopKEngine(DATASET.attributed, _config())
        with pytest.raises(ConfigurationError, match="score"):
            engine.top_k(3, sort_by="z_score")

    def test_k_must_be_positive(self):
        engine = ProgressiveTopKEngine(DATASET.attributed, _config())
        with pytest.raises(ConfigurationError, match="positive"):
            engine.top_k(0)

    def test_weighted_samplers_rejected(self):
        engine = ProgressiveTopKEngine(DATASET.attributed, _config("importance"))
        with pytest.raises(ConfigurationError, match="importance-weighted"):
            engine.top_k(3)

    def test_on_insufficient_validated(self):
        engine = ProgressiveTopKEngine(DATASET.attributed, _config())
        with pytest.raises(ConfigurationError, match="on_insufficient"):
            engine.top_k(3, on_insufficient="ignore")


class TestIdentityProperty:
    """The headline guarantee: progressive top-k == full-budget top-k.

    The full ranking and the progressive ranking draw through the same
    sampler configuration, so whenever the confidence intervals hold (fixed
    seeds make this deterministic) the surviving pairs' final estimates are
    computed on the identical full-budget sample and must agree bit for bit
    — keys, scores, z-scores, p-values, verdicts and ranks.
    """

    @pytest.mark.parametrize("sampler", ["batch_bfs", "whole_graph", "exhaustive"])
    def test_topk_matches_full_ranking(self, sampler):
        config = _config(sampler)
        full = BatchTescEngine(DATASET.attributed, config).rank_pairs("all")
        for k in (1, 3, 7, len(full)):
            ranking = ProgressiveTopKEngine(DATASET.attributed, config).top_k(k)
            assert _signature(ranking) == _signature(full.top(k)), (
                f"sampler={sampler} k={k}"
            )

    @pytest.mark.parametrize("sampler", ["batch_bfs", "whole_graph", "exhaustive"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_workers_change_nothing(self, sampler, workers):
        config = _config(sampler)
        full = BatchTescEngine(DATASET.attributed, config).rank_pairs("all")
        ranking = ProgressiveTopKEngine(
            DATASET.attributed, config, workers=workers
        ).top_k(4)
        assert _signature(ranking) == _signature(full.top(4))
        threaded = BatchTescEngine(
            DATASET.attributed, config, workers=workers
        ).rank_pairs("all")
        assert ranking.stats.workers == threaded.stats.workers == workers
        assert ranking.stats.shards == threaded.stats.shards == workers

    def test_explicit_pair_subset(self):
        config = _config()
        names = DATASET.attributed.event_names()
        subset = [(names[0], names[1]), (names[0], names[2]), (names[3], names[4])]
        full = BatchTescEngine(DATASET.attributed, config).rank_pairs(subset)
        ranking = ProgressiveTopKEngine(DATASET.attributed, config).top_k(
            2, pairs=subset
        )
        assert _signature(ranking) == _signature(full.top(2))


class TestKernelConservatism:
    """Pruning decisions must not depend on the concordance kernel.

    All kernels return the same exact integer S, so the screening estimates
    — and therefore every bound, the k-th threshold and the pruning set —
    are identical whichever kernel computed them.
    """

    @pytest.mark.parametrize("kernel", ["naive", "fast", "table"])
    def test_forced_kernels_match_auto(self, kernel, force_kernel):
        auto = ProgressiveTopKEngine(DATASET.attributed, _config()).top_k(3)
        force_kernel(kernel)
        forced = ProgressiveTopKEngine(DATASET.attributed, _config()).top_k(3)
        assert _signature(forced) == _signature(auto)
        assert [
            (r.pairs_entering, r.pairs_pruned) for r in forced.rounds
        ] == [(r.pairs_entering, r.pairs_pruned) for r in auto.rounds]


class TestEngineBehaviour:
    def test_pruning_happens_and_is_accounted(self):
        ranking = ProgressiveTopKEngine(
            SEPARABLE_DATASET.attributed, _separable_config()
        ).top_k(2)
        stats = ranking.topk_stats
        assert stats.pairs_pruned > 0
        assert stats.pairs_survived >= 2
        assert stats.pairs_pruned + stats.pairs_survived == stats.num_pairs
        assert stats.screen_estimates > 0
        assert stats.rounds[-1].sample_size == stats.budget
        # Prefix sizes grow strictly monotonically across rounds.
        sizes = [r.sample_size for r in stats.rounds]
        assert sizes == sorted(set(sizes))

    def test_separable_identity_still_holds(self):
        config = _separable_config()
        full = BatchTescEngine(SEPARABLE_DATASET.attributed, config).rank_pairs("all")
        ranking = ProgressiveTopKEngine(
            SEPARABLE_DATASET.attributed, config
        ).top_k(2)
        assert _signature(ranking) == _signature(full.top(2))

    def test_survivors_only_see_full_sample(self):
        ranking = ProgressiveTopKEngine(
            SEPARABLE_DATASET.attributed, _separable_config()
        ).top_k(2)
        final = ranking.topk_stats.rounds[-1]
        assert final.pairs_entering == ranking.topk_stats.pairs_survived
        assert final.pairs_entering < ranking.topk_stats.num_pairs

    def test_kth_lower_bound_tightens(self):
        ranking = ProgressiveTopKEngine(
            SEPARABLE_DATASET.attributed, _separable_config()
        ).top_k(2)
        thresholds = [
            r.kth_lower_bound
            for r in ranking.rounds
            if r.kth_lower_bound is not None
        ]
        assert len(thresholds) >= 2
        assert thresholds[-1] > thresholds[0]

    def test_sample_is_canonical_full_budget_sample(self):
        config = _config()
        ranking = ProgressiveTopKEngine(DATASET.attributed, config).top_k(2)
        full = BatchTescEngine(DATASET.attributed, config).rank_pairs("all")
        np.testing.assert_array_equal(ranking.sample.nodes, full.sample.nodes)

    def test_convenience_wrapper(self):
        ranking = top_k_pairs(
            DATASET.attributed, 2, sample_size=400,
            topk_initial_sample_size=64, random_state=17,
        )
        assert len(ranking) == 2
        assert ranking[0].rank == 1
        assert ranking.k == 2
        assert "rank" in ranking.render()

    def test_k_larger_than_pair_count_returns_everything(self):
        config = _config()
        full = BatchTescEngine(DATASET.attributed, config).rank_pairs("all")
        ranking = ProgressiveTopKEngine(DATASET.attributed, config).top_k(
            len(full) + 10
        )
        assert _signature(ranking) == _signature(full)


class TestScreeningRoundOracle:
    """Every screening round rebuilt from scratch: a fresh density matrix
    over the round's prefix of the draw order, :func:`plain_estimate` over
    each entering pair's population and :func:`confidence_half_width` for
    its bound.  The engine's column prefixes and population pass must give
    the same counts and the same k-th lower bound, float for float."""

    def test_rounds_match_a_rebuild_from_scratch(self):
        attributed = SEPARABLE_DATASET.attributed
        k = 2
        ranking = ProgressiveTopKEngine(attributed, _separable_config()).top_k(k)
        active = resolve_pair_spec(attributed.event_names(), "all")
        events = sorted({event for pair in active for event in pair})
        row_of = {event: row for row, event in enumerate(events)}
        indicators = np.asarray(attributed.indicator_matrix(events))
        sample = ranking.sample
        order = (
            sample.draw_order
            if sample.draw_order is not None
            else deterministic_draw_order(sample.nodes)
        )
        z_star = critical_z(1.0 - TOPK_CONFIDENCE, "two-sided")
        screening = ranking.rounds[:-1]
        assert len(screening) >= 2
        assert sum(record.pairs_pruned for record in screening) > 0

        for record in screening:
            matrix = DensityComputer(attributed.csr).density_matrix(
                order[: record.sample_size], indicators, 1
            )
            bounds = {}
            for pair in active:
                rows = row_of[pair[0]], row_of[pair[1]]
                columns = matrix.pair_rows(*rows)
                if columns.size < 2:
                    continue
                estimate = plain_estimate(
                    *(matrix.densities[row, columns] for row in rows)
                ).estimate
                width = confidence_half_width(
                    columns.size, columns.size * order.size // record.sample_size, z_star
                )
                bounds[pair] = (estimate - width, estimate + width)
            kth_lower = None
            pruned = set()
            if len(bounds) >= k:
                kth_lower = sorted((low for low, _ in bounds.values()), reverse=True)[k - 1]
                pruned = {pair for pair, (_, high) in bounds.items() if high < kth_lower}
            assert (
                record.pairs_entering, record.pairs_estimated,
                record.pairs_pruned, record.kth_lower_bound,
            ) == (len(active), len(bounds), len(pruned), kth_lower)
            active = [pair for pair in active if pair not in pruned]
        assert ranking.topk_stats.pairs_survived == len(active)


class TestCoverageStudy:
    """The statistical guarantee behind pruning, measured over many seeds.

    Pruning is only safe when the confidence intervals hold; each seed draws
    a different shared sample, so the fraction of (seed, k) runs whose
    progressive top-k differs from the full-budget top-k estimates how often
    they fail.  It must stay within ``1 - TOPK_CONFIDENCE``.
    """

    SEEDS = range(40)
    KS = (1, 3)

    def test_mismatch_rate_within_confidence(self):
        attributed = SEPARABLE_DATASET.attributed
        confidence = TOPK_CONFIDENCE
        mismatches = runs = pruned = 0
        for seed in self.SEEDS:
            config = _separable_config(random_state=seed)
            full = BatchTescEngine(attributed, config).rank_pairs("all")
            for k in self.KS:
                ranking = ProgressiveTopKEngine(attributed, config).top_k(k)
                runs += 1
                mismatches += _signature(ranking) != _signature(full.top(k))
                pruned += ranking.topk_stats.pairs_pruned
        assert pruned > 0, "no pair was pruned, so the study tested nothing"
        assert mismatches / runs <= 1.0 - confidence, (
            f"{mismatches}/{runs} progressive top-k answers differ from the "
            f"full ranking (allowed rate {1.0 - confidence:g})"
        )


class TestCancellation:
    def test_cancelled_top_k_can_be_retried(self, monkeypatch):
        """A deadline hit mid-schedule leaves nothing behind: the engine
        keeps no state between calls, so the retry answers like a fresh
        engine."""
        config = _config("whole_graph")
        expected = ProgressiveTopKEngine(DATASET.attributed, config).top_k(2)
        engine = ProgressiveTopKEngine(DATASET.attributed, config)
        real_checkpoint = deadlines.checkpoint
        calls = []

        def third_call_expires():
            calls.append(None)
            if len(calls) == 3:
                raise DeadlineExceededError("deadline exceeded (injected)")
            real_checkpoint()

        monkeypatch.setattr(deadlines, "checkpoint", third_call_expires)
        with pytest.raises(DeadlineExceededError):
            engine.top_k(2)
        monkeypatch.setattr(deadlines, "checkpoint", real_checkpoint)

        retried = engine.top_k(2)
        assert _signature(retried) == _signature(expected)
        full = BatchTescEngine(DATASET.attributed, config).rank_pairs("all")
        assert _signature(retried) == _signature(full.top(2))


class TestInsufficientPairs:
    """Pairs too sparse to estimate are never pruned and finish like rank_pairs."""

    @pytest.fixture
    def sparse_attributed(self):
        # Two well-connected events plus one event on an isolated clique far
        # from everything else: pairs with the isolated event have almost no
        # shared reference nodes at h=1 under a universe-wide sample.
        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        return AttributedGraph(
            graph,
            {"a": range(0, 30), "b": range(10, 40), "lonely": [150]},
        )

    def test_keep_matches_full_ranking(self, sparse_attributed):
        config = TescConfig(
            sample_size=120, topk_initial_sample_size=16, random_state=5
        )
        full = BatchTescEngine(sparse_attributed, config).rank_pairs(
            "all", on_insufficient="keep"
        )
        ranking = ProgressiveTopKEngine(sparse_attributed, config).top_k(
            len(full), on_insufficient="keep"
        )
        assert _signature(ranking) == _signature(full)
