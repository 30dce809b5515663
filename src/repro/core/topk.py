"""Progressive top-k pair ranking with confidence-bound pruning.

:meth:`~repro.core.batch.BatchTescEngine.rank_pairs` spends the full
``sample_size`` budget on every pair even when the caller only wants the
top-k most correlated ones — an all-pairs scan over ``E`` events pays
``O(E² · budget)`` estimate work.  :class:`ProgressiveTopKEngine` spends the
budget only where it can still change the answer:

1. **One shared sample, revealed in geometric prefix rounds.**  Each
   :meth:`~ProgressiveTopKEngine.top_k` call draws the full-budget sample
   once, through the same fresh-sampler call
   (:func:`~repro.core.batch.draw_shared_sample`) as
   :meth:`~repro.core.batch.BatchTescEngine.rank_pairs`, and keeps nothing
   after it returns; round ``r``'s reference nodes are the first ``m_r``
   entries of its draw order
   (``sample.draw_order``, or
   :func:`~repro.sampling.base.deterministic_draw_order` for samplers that
   record none).  Every prefix of a uniform draw order is itself a uniform
   sample, and the last round is the whole sample.
2. **Append-only density evaluation.**  Each round BFS-counts only the
   newly revealed reference nodes
   (:meth:`~repro.core.density.DensityComputer.append_columns`), and only
   for events that still appear in a surviving pair.  The service instead
   hands in the full-budget matrix gathered from its count table, and each
   round takes a column prefix of it.
3. **Confidence-bound pruning.**  After each round every surviving pair's
   Kendall estimate gets a two-sided confidence interval from the variance
   machinery of :mod:`repro.core.estimators`; any pair whose upper bound
   falls strictly below the k-th largest lower bound can no longer reach the
   top-k and is eliminated.  Pairs whose restricted population is still too
   small to estimate are never pruned.
4. **Full-budget finish.**  Only survivors ever see the full sample: their
   final estimates run through the exact same density matrix / rank-vector /
   kernel arithmetic as ``rank_pairs``, so whenever the confidence intervals
   hold, the returned top-k — keys, scores, z-scores, verdicts and ranks — is
   *identical* to ``rank_pairs().top(k)`` (property-tested across samplers
   and worker counts).  ``workers > 1`` splits each round's density columns
   across that many threads, which changes no count.

The half-width of a round-``r`` interval covers the gap between the round
estimate and the *full-budget* estimate, not just the population value: for
nested uniform subsamples ``Var(t_r − t_full) = Var(t_r) − Var(t_full)``, so
``z* · (sd(n_r) + sd(n_proj))`` — with ``n_proj`` the pair's restricted
count projected to the full budget — bounds the deviation with slack.  The
sd is the asymptotic normal one of the Kendall statistic, and the level is
:data:`TOPK_CONFIDENCE`, per pair per round; it is not Bonferroni-corrected
across the schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.batch import (
    BatchStats,
    PairRanking,
    PairSpec,
    check_rank_options,
    draw_shared_sample,
    ensure_uniform_sample,
    ensure_uniform_sampler,
    estimate_pair_list,
    event_universe,
    finalise_ranking,
    resolve_pair_spec,
)
from repro.core.config import TescConfig
from repro.core.density import DensityComputer, DensityMatrix
from repro.core.estimators import PairEstimateBatcher
from repro.events.attributed_graph import AttributedGraph
from repro.exceptions import ConfigurationError
from repro.obs.registry import NULL_REGISTRY
from repro.obs.trace import stage
from repro.sampling.base import ReferenceSample, deterministic_draw_order
from repro.utils import deadlines
from repro.utils.validation import resolve_workers

# benchmarks/ledger/traced_serve.py wraps this name at startup; nothing calls it.
estimate_matrix_pairs_sharded = estimate_pair_list

#: Two-sided confidence level of the progressive pruning bounds.  0.995
#: keeps a safety margin over the asymptotic variance model: the worst
#: prefix-vs-full deviation observed while calibrating on tie-heavy DBLP
#: density columns was ~3.1x the asymptotic sd at the smallest rounds,
#: inside the ~3.3x half-width this level buys (0.99 would sit at ~3.0x).
TOPK_CONFIDENCE = 0.995
#: ``critical_z(1 - TOPK_CONFIDENCE, "two-sided")``, written out so that no
#: request imports ``scipy.stats`` (over a second on a cold process) for it.
#: ``statistics.NormalDist`` differs in the last bit, so the literal is the
#: scipy value, pinned against ``critical_z`` by a test.
TOPK_Z_STAR = 2.807033768343804


def round_schedule(initial: int, budget: int, growth_factor: float) -> List[int]:
    """Geometric prefix sizes from ``initial`` up to (and including) ``budget``.

    Consecutive sizes grow by at least one node and at most ``growth_factor``;
    the last entry is always exactly ``budget`` (a budget at or below
    ``initial`` degenerates to the single full-budget round, i.e. no
    screening at all).
    """
    if budget < 2:
        raise ConfigurationError(f"budget must be at least 2, got {budget}")
    sizes: List[int] = []
    size = min(int(initial), int(budget))
    while size < budget:
        sizes.append(size)
        size = min(int(budget), max(size + 1, int(math.ceil(size * growth_factor))))
    sizes.append(int(budget))
    return sizes


def asymptotic_tau_sd(sample_size: int) -> float:
    """Asymptotic standard deviation of the Kendall statistic at size ``n``.

    ``Var(t) ≈ 2(2n + 5) / (9 n (n − 1))`` — the classic null variance of
    tau-a, which tie corrections only shrink, so it is conservative with
    respect to ties.  The statistic is undefined below ``n = 2``, which the
    engine's tiny first rounds can reach, so smaller sizes are rejected.
    """
    n = int(sample_size)
    if n < 2:
        raise ValueError(
            f"asymptotic_tau_sd needs sample_size >= 2, got {sample_size}"
        )
    return math.sqrt(2.0 * (2.0 * n + 5.0) / (9.0 * n * (n - 1.0)))


def confidence_half_width(
    num_reference_nodes: int,
    projected_full_nodes: int,
    z_star: float,
) -> float:
    """Two-sided half-width covering round-vs-full estimate deviation.

    ``z* · (sd(n) + sd(n_proj))``: the first term covers the round estimate's
    deviation from the population tau, the second the full-budget estimate's
    own deviation (small — ``n_proj >= n``).  Both sds are
    :func:`asymptotic_tau_sd`.
    """
    n = int(num_reference_nodes)
    n_proj = max(int(projected_full_nodes), n)
    return float(z_star) * (asymptotic_tau_sd(n) + asymptotic_tau_sd(n_proj))


def confidence_half_widths(
    num_reference_nodes: np.ndarray,
    projected_full_nodes: np.ndarray,
    z_star: float,
) -> np.ndarray:
    """:func:`confidence_half_width` over arrays of sizes, bit for bit.

    The same float operations run in the same order, elementwise; every
    size must be at least 2.
    """
    n = np.asarray(num_reference_nodes, dtype=np.int64)
    n_proj = np.maximum(np.asarray(projected_full_nodes, dtype=np.int64), n)

    def sd(sizes: np.ndarray) -> np.ndarray:
        sizes = sizes.astype(float)
        return np.sqrt(2.0 * (2.0 * sizes + 5.0) / (9.0 * sizes * (sizes - 1.0)))

    return float(z_star) * (sd(n) + sd(n_proj))


@dataclass(frozen=True)
class TopKRound:
    """One progressive round's bookkeeping.

    Attributes
    ----------
    index:
        0-based round number.
    sample_size:
        Prefix size (number of reference nodes revealed) this round.
    new_reference_nodes:
        How many of those were newly BFS-counted this round.
    pairs_entering / pairs_estimated / pairs_pruned:
        Active pairs at round start, how many had enough restricted
        reference nodes to screen, and how many the bounds eliminated.
    live_events:
        Events still appearing in at least one surviving pair after pruning.
    kth_lower_bound:
        The pruning threshold (``None`` when fewer than k pairs had bounds).
    """

    index: int
    sample_size: int
    new_reference_nodes: int
    pairs_entering: int
    pairs_estimated: int
    pairs_pruned: int
    live_events: int
    kth_lower_bound: Optional[float]


@dataclass
class TopKStats:
    """Cost accounting for one progressive top-k call.

    ``screen_estimates`` counts the per-round screening estimates (a
    pair's point estimate at the round's prefix, for its bound); each of
    the ``pairs_survived`` pairs gets one full-budget estimate.
    ``rank_pairs`` would have paid ``num_pairs`` full-budget estimates —
    the spread between these counters is the estimate work the bounds
    saved.  With every estimate in one population pass that saving is
    small on the wall clock: on the 435-pair scan of
    ``benchmarks/bench_micro.py`` (2 cores, k=3) ``top_k`` takes 78–81 ms
    against 95–101 ms for ``rank_pairs("all")`` (medians of two runs).
    ``budget`` is the shared
    sample's distinct node count: ``sample_size`` unless the sampler found
    fewer eligible nodes.
    """

    num_events: int = 0
    num_pairs: int = 0
    k: int = 0
    budget: int = 0
    pairs_pruned: int = 0
    pairs_survived: int = 0
    screen_estimates: int = 0
    density_bfs_calls: int = 0
    workers: int = 1
    rounds: Tuple[TopKRound, ...] = ()


@dataclass(frozen=True)
class TopKRanking(PairRanking):
    """A :class:`~repro.core.batch.PairRanking` of the k best pairs, plus the
    progressive engine's round/pruning accounting."""

    k: int = 0
    confidence: float = 0.0
    topk_stats: TopKStats = field(default_factory=TopKStats)

    @property
    def rounds(self) -> Tuple[TopKRound, ...]:
        """The executed round schedule."""
        return self.topk_stats.rounds


class ProgressiveTopKEngine:
    """Top-k pair ranking that prunes with confidence bounds between rounds.

    Parameters
    ----------
    attributed:
        The attributed graph to test on.
    config:
        The :class:`~repro.core.config.TescConfig` every :meth:`top_k`
        call runs under; the progressive schedule comes from
        ``topk_initial_sample_size`` and ``topk_growth_factor``.  Same
        sampler restrictions as :class:`~repro.core.batch.BatchTescEngine`
        (uniform only).
    workers:
        Density threads per round (``None``/1 = serial); see
        :func:`~repro.utils.validation.resolve_workers`.  Results are identical
        for every worker count.

    Examples
    --------
    >>> from repro.graph.generators import community_ring_graph
    >>> from repro.events import AttributedGraph
    >>> graph = community_ring_graph(8, 40, 5.0, 10, random_state=3)
    >>> attributed = AttributedGraph(
    ...     graph, {"a": range(0, 30), "b": range(10, 40), "c": range(160, 200)}
    ... )
    >>> engine = ProgressiveTopKEngine(
    ...     attributed, TescConfig(sample_size=120, random_state=3)
    ... )
    >>> ranking = engine.top_k(2)
    >>> [pair.rank for pair in ranking]
    [1, 2]
    """

    def __init__(
        self,
        attributed: AttributedGraph,
        config: Optional[TescConfig] = None,
        workers: Optional[int] = None,
        metrics=None,
    ) -> None:
        self.attributed = attributed
        self.config = config if config is not None else TescConfig()
        self.workers = resolve_workers(workers)
        self._density_computer = DensityComputer(attributed.csr, workers=self.workers)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_rounds = self.metrics.counter(
            "tesc_topk_rounds_total",
            "Progressive rounds executed (screening and final).",
        )
        self._m_pruned = self.metrics.counter(
            "tesc_topk_pairs_pruned_total",
            "Pairs eliminated by confidence-bound pruning.",
        )
        self._m_survived = self.metrics.counter(
            "tesc_topk_pairs_survived_total",
            "Pairs that reached the full-budget final estimate.",
        )
        self._m_screens = self.metrics.counter(
            "tesc_topk_screen_estimates_total",
            "Cheap screening estimates computed across rounds.",
        )

    # -- the public API ------------------------------------------------------

    def top_k(
        self,
        k: int,
        pairs: PairSpec = "all",
        sort_by: str = "score",
        on_insufficient: str = "keep",
        sample: Optional[ReferenceSample] = None,
        matrix: Optional[DensityMatrix] = None,
    ) -> TopKRanking:
        """The ``k`` best pairs of ``pairs``, identical to full-budget ranking.

        Parameters
        ----------
        k:
            How many top pairs to return.
        pairs:
            ``"all"`` or an explicit pair sequence (as in ``rank_pairs``).
        sort_by:
            Only ``"score"`` is supported: the confidence bounds are bounds
            on the Kendall estimate, so pruning against a z-score or p-value
            order would be unsound.  Use ``rank_pairs(top_k=...)`` for other
            sort keys.
        on_insufficient:
            ``"keep"`` (default) or ``"raise"`` — same semantics as
            ``rank_pairs``; a pair too sparse to estimate is never pruned,
            so ``"raise"`` fires at the final round exactly when a full
            ranking would have raised.
        sample:
            Internal: a full-budget draw over the pairs' event universe
            that the caller already holds (the service passes its memoised
            draw).  ``None`` draws a fresh one, as ``rank_pairs`` does.
        matrix:
            Internal: the full-budget density matrix of ``sample`` over the
            pairs' events, columns in draw order (the service gathers it
            from its count table).  Each round then takes a column prefix
            of it instead of BFS-counting.  ``None`` counts round by round.
        """
        if sort_by != "score":
            raise ConfigurationError(
                "confidence-bound pruning ranks by the Kendall estimate; "
                f'sort_by must be "score" (got {sort_by!r}) — use '
                "rank_pairs(top_k=...) for other sort keys"
            )
        check_rank_options(sort_by, on_insufficient)
        k = int(k)
        if k < 1:
            raise ConfigurationError(f"k must be a positive integer, got {k}")
        cfg = self.config
        ensure_uniform_sampler(cfg, "the progressive top-k engine")
        stats = TopKStats(k=k, workers=self.workers)

        pair_list = resolve_pair_spec(self.attributed.event_names(), pairs)
        events = sorted({event for pair in pair_list for event in pair})
        row_of = {event: row for row, event in enumerate(events)}
        indicators = np.asarray(self.attributed.indicator_matrix(events))
        if sample is None:
            universe = event_universe(self.attributed, events)
            with stage("sampling"):
                sample = draw_shared_sample(self.attributed, universe, cfg)
        else:
            ensure_uniform_sample(sample, cfg.sampler)
        # Round r's reference nodes are order[:m_r]: every prefix of a
        # uniform draw order is itself a uniform sample.
        order = draw_order(sample)
        budget = int(order.size)
        if matrix is not None and not (
            matrix.num_events == len(events)
            and np.array_equal(matrix.reference_nodes, order)
        ):
            raise ConfigurationError(
                "matrix= must hold one row per event and one column per "
                "sampled node, in draw order"
            )
        # From here on ``matrix`` is the current round's prefix matrix.
        full = matrix

        bfs_engine = self._density_computer.engine
        bfs_before = bfs_engine.bfs_calls

        active = list(pair_list)
        rounds: List[TopKRound] = []
        matrix = None
        batcher: Optional[PairEstimateBatcher] = None
        pending = round_schedule(
            cfg.topk_initial_sample_size, budget, cfg.topk_growth_factor
        )
        live_rows = np.arange(len(events), dtype=np.int64)
        stalled_rounds = 0
        final_new_count = 0

        while pending:
            # Cooperative cancellation between rounds: a request whose
            # deadline expired stops before paying for another round.
            deadlines.checkpoint()
            target = pending.pop(0)
            final_round = not pending
            self._m_rounds.inc()
            order_nodes = order[:target]
            with stage("density"):
                if full is not None:
                    new_count = order_nodes.size - (
                        0 if matrix is None else matrix.num_reference_nodes
                    )
                    matrix = full.prefix(target)
                elif matrix is None:
                    new_count = order_nodes.size
                    matrix = self._density_computer.density_matrix(
                        order_nodes, indicators, cfg.vicinity_level
                    )
                else:
                    suffix = order_nodes[matrix.num_reference_nodes:]
                    new_count = suffix.size
                    matrix = self._density_computer.append_columns(
                        matrix, suffix, indicators[live_rows], rows=live_rows
                    )
            batcher = (
                PairEstimateBatcher(matrix.densities)
                if batcher is None
                else batcher.grown(matrix.densities)
            )
            if final_round:
                final_new_count = int(new_count)
                break

            entering = len(active)
            with stage("screening", pairs=entering):
                scores = batcher.estimate_pairs(
                    [row_of[a] for a, _ in active], [row_of[b] for _, b in active]
                )
                # Pairs too sparse to bound are never pruned.
                screened = np.flatnonzero(scores.n >= 2)
                sizes = scores.n[screened]
                estimate = scores.estimate[screened]
                width = confidence_half_widths(
                    sizes, (sizes * budget) // max(order_nodes.size, 1), TOPK_Z_STAR
                )
                stats.screen_estimates += int(screened.size)

                kth_lower: Optional[float] = None
                pruned: set = set()
                if screened.size >= k:
                    kth_lower = float(np.sort(estimate - width)[-k])
                    pruned = {
                        active[i]
                        for i in screened[estimate + width < kth_lower].tolist()
                    }
                    if pruned:
                        active = [pair for pair in active if pair not in pruned]
                        live_events = {event for pair in active for event in pair}
                        live_rows = np.array(
                            sorted(row_of[event] for event in live_events),
                            dtype=np.int64,
                        )
            rounds.append(
                TopKRound(
                    index=len(rounds),
                    sample_size=int(order_nodes.size),
                    new_reference_nodes=int(new_count),
                    pairs_entering=entering,
                    pairs_estimated=int(screened.size),
                    pairs_pruned=len(pruned),
                    live_events=int(live_rows.size),
                    kth_lower_bound=kth_lower,
                )
            )
            stalled_rounds = stalled_rounds + 1 if not pruned else 0
            if len(active) <= k or stalled_rounds >= 2:
                # Further intermediate rounds cannot help (already down to k)
                # or are persistently not helping (two consecutive rounds
                # pruned nothing); jump straight to the full budget.
                pending = pending[-1:]

        # Final full-budget estimates for the survivors — the exact
        # rank_pairs arithmetic (shared density matrix, rank vectors,
        # batcher kernels).
        with stage("estimate", pairs=len(active)):
            results = estimate_pair_list(
                active, row_of, batcher, cfg, on_insufficient
            )

        ranked = finalise_ranking(results, sort_by, k)

        rounds.append(
            TopKRound(
                index=len(rounds),
                sample_size=int(matrix.num_reference_nodes),
                new_reference_nodes=final_new_count,
                pairs_entering=len(active),
                pairs_estimated=len(active),
                pairs_pruned=0,
                live_events=int(live_rows.size),
                kth_lower_bound=None,
            )
        )
        stats.num_events = len(events)
        stats.num_pairs = len(pair_list)
        stats.budget = budget
        stats.pairs_pruned = len(pair_list) - len(active)
        stats.pairs_survived = len(active)
        stats.density_bfs_calls = bfs_engine.bfs_calls - bfs_before
        stats.rounds = tuple(rounds)
        self._m_pruned.inc(stats.pairs_pruned)
        self._m_survived.inc(stats.pairs_survived)
        self._m_screens.inc(stats.screen_estimates)

        return TopKRanking(
            pairs=ranked,
            vicinity_level=cfg.vicinity_level,
            sort_by=sort_by,
            alpha=cfg.alpha,
            sample=sample,
            stats=BatchStats(
                num_events=len(events),
                num_pairs=len(pair_list),
                density_passes=len(stats.rounds),
                density_bfs_calls=stats.density_bfs_calls,
                workers=self.workers,
                shards=max(1, min(self.workers, sample.nodes.size)),
            ),
            k=k,
            confidence=TOPK_CONFIDENCE,
            topk_stats=stats,
        )


def draw_order(sample: ReferenceSample) -> np.ndarray:
    """The order whose prefixes are the progressive rounds' samples:
    ``sample.draw_order``, or :func:`~repro.sampling.base.deterministic_draw_order`
    for samplers that record none."""
    if sample.draw_order is not None:
        return sample.draw_order
    return deterministic_draw_order(sample.nodes)


def top_k_pairs(
    attributed: AttributedGraph,
    k: int,
    pairs: PairSpec = "all",
    vicinity_level: int = 1,
    workers: Optional[int] = None,
    **config_kwargs,
) -> TopKRanking:
    """One-call convenience wrapper around :class:`ProgressiveTopKEngine`.

    ``config_kwargs`` accepts any :class:`~repro.core.config.TescConfig`
    field (e.g. ``sample_size=8000``, ``topk_growth_factor=4.0``,
    ``random_state=17``).

    Examples
    --------
    >>> from repro.graph.generators import erdos_renyi_graph
    >>> from repro.events import AttributedGraph
    >>> graph = erdos_renyi_graph(300, 0.02, random_state=7)
    >>> attributed = AttributedGraph(
    ...     graph, {"a": range(0, 40), "b": range(20, 60), "c": range(200, 240)}
    ... )
    >>> ranking = top_k_pairs(attributed, 2, sample_size=100, random_state=7)
    >>> [pair.rank for pair in ranking]
    [1, 2]
    """
    config = TescConfig(vicinity_level=vicinity_level, **config_kwargs)
    return ProgressiveTopKEngine(attributed, config, workers=workers).top_k(k, pairs)
