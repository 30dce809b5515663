"""Tests for the progressive top-k engine and its CI-pruning machinery."""

import numpy as np
import pytest

from repro.core.batch import BatchTescEngine
from repro.core.config import TescConfig
from repro.core.topk import (
    ProgressiveTopKEngine,
    asymptotic_tau_sd,
    confidence_half_width,
    derive_growth_factor,
    round_schedule,
    top_k_pairs,
)
from repro.datasets.synthetic_dblp import make_dblp_like
from repro.exceptions import ConfigurationError, DeadlineExceededError
from repro.graph.generators import community_ring_graph
from repro.events.attributed_graph import AttributedGraph
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


class TestDeriveGrowthFactor:
    def test_round_count_recovered(self):
        factor = derive_growth_factor(256, 8000, 6)
        assert len(round_schedule(256, 8000, factor)) == 6

    def test_two_rounds_is_one_jump(self):
        factor = derive_growth_factor(100, 400, 2)
        assert round_schedule(100, 400, factor) == [100, 400]

    def test_degenerate_budget_keeps_default(self):
        assert derive_growth_factor(400, 300, 4) > 1.0

    def test_rejects_fewer_than_two_rounds(self):
        with pytest.raises(ConfigurationError):
            derive_growth_factor(256, 8000, 1)


class TestConfidenceBounds:
    def test_widths_shrink_monotonically_with_sample_size(self):
        for bound in ("asymptotic", "certified"):
            widths = [
                confidence_half_width(0.3, n, n * 4, z_star=2.576, bound=bound)
                for n in (8, 32, 128, 512, 2048)
            ]
            assert widths == sorted(widths, reverse=True)
            assert all(width > 0 for width in widths)

    def test_certified_is_wider_than_asymptotic(self):
        # The paper's 2(1 - tau^2)/n bound is several times the asymptotic
        # variance for moderate tau, so its intervals must be wider.
        for n in (16, 256, 4096):
            certified = confidence_half_width(0.2, n, n, 2.576, "certified")
            asymptotic = confidence_half_width(0.2, n, n, 2.576, "asymptotic")
            assert certified > asymptotic

    def test_projection_term_adds_slack(self):
        tight = confidence_half_width(0.0, 100, 10_000, 2.576)
        loose = confidence_half_width(0.0, 100, 100, 2.576)
        assert loose > tight > 2.576 * asymptotic_tau_sd(100)

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_tau_sd(1)
        with pytest.raises(ValueError):
            confidence_half_width(0.0, 1, 10, 2.576)


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

    def test_certified_bound_also_identical(self):
        config = _config(topk_bound="certified")
        full = BatchTescEngine(DATASET.attributed, config).rank_pairs("all")
        ranking = ProgressiveTopKEngine(DATASET.attributed, config).top_k(3)
        assert _signature(ranking) == _signature(full.top(3))


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
        assert stats.final_estimates == stats.pairs_survived
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


class TestCoverageStudy:
    """The statistical guarantee behind pruning, measured over many seeds.

    Pruning is only safe when the confidence intervals hold; each seed draws
    a different shared sample, so the fraction of (seed, k) runs whose
    progressive top-k differs from the full-budget top-k estimates how often
    they fail.  It must stay within the configured ``1 - topk_confidence``.
    """

    SEEDS = range(40)
    KS = (1, 3)

    def test_mismatch_rate_within_confidence(self):
        attributed = SEPARABLE_DATASET.attributed
        confidence = _separable_config().topk_confidence
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
