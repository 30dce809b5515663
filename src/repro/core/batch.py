"""Batch pair-testing and ranking engine.

The paper's headline workloads (Tables 1–5, keyword correlation, intrusion
alerts) all test *many* event pairs on one graph, yet
:meth:`~repro.core.tesc.TescTester.test` pays sampling, vicinity-index and
density costs once per pair.  :class:`BatchTescEngine` amortises that work
across a whole pair set:

1. **One shared reference sample per call.**  Each
   :meth:`~BatchTescEngine.rank_pairs` call samples the reference
   population of the *union* of all events being ranked once, through a
   freshly seeded sampler, so the sampling pass (and the vicinity index a
   sampler may need) runs once no matter how many pairs are tested.  The
   engine keeps nothing between calls, so a call's sample depends only on
   its population and config, never on which calls came before.
2. **One density pass for all events.**
   :meth:`~repro.core.density.DensityComputer.density_matrix` performs one
   h-hop BFS per reference node and reads every event's density off the same
   vicinity — ``n`` BFS total instead of ``n`` per pair.
3. **Per-pair populations recovered for free.**  Hop distance is symmetric,
   so a reference node lies in a pair's population ``V^h_{a∪b}`` exactly
   when its vicinity contains an occurrence of either event — i.e. when one
   of the counts the density pass already produced is positive.  Restricted
   to those columns, a uniform shared sample is a uniform sample of the
   pair's own population, and in exhaustive mode the per-pair results are
   *numerically identical* to looped :class:`~repro.core.tesc.TescTester`
   runs.
4. **Shared estimator state.**  Each event's density column is rank-encoded
   once by :class:`~repro.core.estimators.PairEstimateBatcher` (an ``O(n)``
   rank vector per event) and gathered per pair; the per-pair concordance
   runs through the contingency-table kernel of
   :mod:`repro.stats.fast_kendall` while ``Kx·Ky <= c·n``, the
   ``O(n log n)`` merge sort otherwise.

The entry points are :meth:`BatchTescEngine.rank_pairs` (object API) and
:func:`rank_pairs` (one-call convenience), both returning a
:class:`PairRanking`.  ``workers > 1`` splits the density pass's columns
across that many threads and changes no count, so rankings are
bit-identical for every worker count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import TescConfig
from repro.core.density import DensityComputer
from repro.core.estimators import PairEstimateBatcher
from repro.events.attributed_graph import AttributedGraph
from repro.exceptions import ConfigurationError, InsufficientSampleError
from repro.obs.trace import stage
from repro.sampling.base import ReferenceSample
from repro.sampling.registry import make_config_sampler
from repro.stats.hypothesis import CorrelationVerdict, decide
from repro.utils.tables import TextTable
from repro.utils.validation import resolve_workers, sorted_unique

#: Ranking keys accepted by :meth:`BatchTescEngine.rank_pairs`.
SORT_KEYS = ("score", "z_score", "abs_z", "p_value")

#: Samplers whose draws carry importance weights; those weights are defined
#: relative to the population they were drawn from and cannot be restricted
#: to per-pair populations, so the batch engine rejects them up front.
WEIGHTED_SAMPLERS = ("importance", "batch_importance")


@dataclass(frozen=True)
class RankedPair:
    """One event pair's result inside a :class:`PairRanking`.

    Attributes
    ----------
    rank:
        1-based position in the ranking order.
    event_a / event_b:
        The tested pair.
    score / z_score / p_value / verdict:
        Same semantics as on :class:`~repro.core.tesc.TescResult`.
    num_reference_nodes:
        Size of the pair's restricted reference population within the shared
        sample.
    degenerate:
        True when a density vector was constant (z-score pinned to 0).
    insufficient:
        True when fewer than two shared reference nodes fell inside the
        pair's population, so no estimate was possible (score/z reported as
        0 and verdict independent).
    """

    rank: int
    event_a: str
    event_b: str
    score: float
    z_score: float
    p_value: float
    verdict: CorrelationVerdict
    num_reference_nodes: int
    degenerate: bool = False
    insufficient: bool = False

    @property
    def significant(self) -> bool:
        """Whether the pair was declared correlated."""
        return self.verdict is not CorrelationVerdict.INDEPENDENT

    @property
    def events(self) -> Tuple[str, str]:
        """The pair as a tuple."""
        return (self.event_a, self.event_b)

    def __str__(self) -> str:
        return (
            f"#{self.rank} ({self.event_a!r}, {self.event_b!r}): "
            f"score={self.score:+.4f}, z={self.z_score:+.2f}, "
            f"verdict={self.verdict.value}"
        )


@dataclass
class BatchStats:
    """Cost accounting for one batch ranking call.

    Each :class:`PairRanking` carries the stats of the call that produced
    it.  The point of the batch engine is that ``density_passes`` and
    ``density_bfs_calls`` stay independent of the number of pairs; these
    counters make that claim checkable (and are asserted on in the tests).
    ``workers`` is the density-thread count and ``shards`` the number of
    column slices its density pass splits into.
    """

    num_events: int = 0
    num_pairs: int = 0
    density_passes: int = 0
    density_bfs_calls: int = 0
    workers: int = 1
    shards: int = 1


@dataclass(frozen=True)
class PairRanking:
    """Ranked results for a batch of event pairs.

    Iterable and indexable like a sequence of :class:`RankedPair` (best pair
    first, according to the requested sort key).
    """

    pairs: Tuple[RankedPair, ...]
    vicinity_level: int
    sort_by: str
    alpha: float
    sample: ReferenceSample
    stats: BatchStats

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, index):
        return self.pairs[index]

    def top(self, k: int) -> Tuple[RankedPair, ...]:
        """The ``k`` best-ranked pairs."""
        return self.pairs[: max(int(k), 0)]

    def significant_pairs(self) -> Tuple[RankedPair, ...]:
        """Only the pairs declared correlated (positive or negative)."""
        return tuple(pair for pair in self.pairs if pair.significant)

    def verdict_counts(self) -> Dict[str, int]:
        """``{verdict value: count}`` over the ranking."""
        counts = {verdict.value: 0 for verdict in CorrelationVerdict}
        for pair in self.pairs:
            counts[pair.verdict.value] += 1
        return counts

    def as_records(self) -> List[Dict[str, object]]:
        """Plain dict-per-pair representation (for JSON/tabular export)."""
        return [
            {
                "rank": pair.rank,
                "event_a": pair.event_a,
                "event_b": pair.event_b,
                "score": pair.score,
                "z_score": pair.z_score,
                "p_value": pair.p_value,
                "verdict": pair.verdict.value,
                "num_reference_nodes": pair.num_reference_nodes,
            }
            for pair in self.pairs
        ]

    def render(self, markdown: bool = False) -> str:
        """Human-readable ranking table."""
        table = TextTable(
            ["rank", "event a", "event b", "score", "z", "p-value", "verdict", "n"]
        )
        for pair in self.pairs:
            table.add_row(
                [
                    pair.rank,
                    pair.event_a,
                    pair.event_b,
                    f"{pair.score:+.4f}",
                    f"{pair.z_score:+.2f}",
                    f"{pair.p_value:.2e}",
                    pair.verdict.value,
                    pair.num_reference_nodes,
                ]
            )
        return table.render(markdown=markdown)

    def __str__(self) -> str:
        return self.render()


PairSpec = Union[str, Sequence[Tuple[str, str]]]


def check_rank_options(sort_by: str, on_insufficient: str) -> None:
    """Validate the ``sort_by`` / ``on_insufficient`` arguments of a ranking call.

    Shared by :meth:`BatchTescEngine.rank_pairs`,
    :meth:`~repro.core.topk.ProgressiveTopKEngine.top_k` and
    :meth:`~repro.service.engine.ServiceEngine.rank` so every engine rejects
    the same values with the same message.
    """
    if sort_by not in SORT_KEYS:
        raise ConfigurationError(
            f"sort_by must be one of {SORT_KEYS}, got {sort_by!r}"
        )
    if on_insufficient not in ("keep", "raise"):
        raise ConfigurationError(
            f'on_insufficient must be "keep" or "raise", got {on_insufficient!r}'
        )


def ensure_uniform_sampler(cfg: TescConfig, caller: str = "the batch engine") -> None:
    """Reject sampler configs whose draws carry importance weights.

    Weighted draws are defined relative to the population they were drawn
    from and cannot be restricted to per-pair populations, so every engine
    built on a shared sample (batch, service, progressive top-k)
    rejects them up front through this guard.
    """
    if cfg.sampler in WEIGHTED_SAMPLERS:
        raise ConfigurationError(
            f"sampler {cfg.sampler!r} produces importance-weighted samples, "
            f"which {caller} cannot restrict to per-pair populations; "
            "use a uniform sampler (batch_bfs, exhaustive, whole_graph, reject) "
            "or per-pair TescTester"
        )


def ensure_uniform_sample(sample: ReferenceSample, sampler_name: str) -> None:
    """Reject weighted or degenerate samples a custom sampler handed back."""
    if sample.weighted:
        # Custom-registered samplers can still hand back weighted draws.
        raise ConfigurationError(
            f"sampler {sampler_name!r} produced an importance-weighted sample, "
            "which shared-sample engines cannot restrict to per-pair populations"
        )
    if sample.num_distinct < 2:
        raise InsufficientSampleError(
            f"sampler {sampler_name!r} produced {sample.num_distinct} reference "
            "nodes; at least two are required"
        )


def draw_shared_sample(graph: AttributedGraph, universe: np.ndarray,
                       cfg: TescConfig) -> ReferenceSample:
    """A fresh full-budget sample over ``universe``, checked uniform."""
    sample = make_config_sampler(graph, cfg).sample(
        universe, cfg.vicinity_level, cfg.sample_size
    )
    ensure_uniform_sample(sample, cfg.sampler)
    return sample


def event_universe(attributed: AttributedGraph, events: Sequence[str]) -> np.ndarray:
    """The union node set ``V_U`` of the given events, sorted and distinct.

    Shared by the batch and service engines so both derive the sampling
    universe with identical ordering.
    """
    arrays = [attributed.event_nodes(event) for event in events]
    return sorted_unique(np.concatenate(arrays)) if arrays else np.empty(0, np.int64)


def resolve_pair_spec(event_names: Sequence[str], pairs: PairSpec) -> List[Tuple[str, str]]:
    """Normalise a :data:`PairSpec` into an explicit ``(a, b)`` pair list.

    ``"all"`` expands to every unordered pair of ``event_names``; explicit
    sequences are validated (two distinct events per pair, at least one
    pair).  Shared by :class:`BatchTescEngine`, the progressive top-k engine
    and the service engine.
    """
    if isinstance(pairs, str):
        if pairs != "all":
            raise ConfigurationError(
                f'pairs must be "all" or a sequence of (event, event) tuples, '
                f"got {pairs!r}"
            )
        names = list(event_names)
        if len(names) < 2:
            raise ConfigurationError(
                f'pairs="all" needs at least two events on the graph, found '
                f"{len(names)}"
            )
        return list(itertools.combinations(names, 2))
    resolved: List[Tuple[str, str]] = []
    for pair in pairs:
        pair = tuple(pair)
        if len(pair) != 2:
            raise ConfigurationError(
                f"each pair must name exactly two events, got {pair!r}"
            )
        event_a, event_b = str(pair[0]), str(pair[1])
        if event_a == event_b:
            raise ConfigurationError(
                f"cannot test an event against itself: {event_a!r}"
            )
        resolved.append((event_a, event_b))
    if not resolved:
        raise ConfigurationError("at least one event pair is required")
    return resolved


def estimate_pair_list(
    pair_list: Sequence[Tuple[str, str]],
    row_of: Dict[str, int],
    batcher: PairEstimateBatcher,
    cfg: TescConfig,
    on_insufficient: str,
) -> List[RankedPair]:
    """Per-pair estimates over a shared density matrix (unranked).

    This is the per-pair half of :meth:`BatchTescEngine.rank_pairs`, exposed
    at module level so the progressive top-k and service engines run exactly
    the same arithmetic on their pair lists.  Every pair is scored over its
    own reference population in one
    :meth:`~repro.core.estimators.PairEstimateBatcher.estimate_pairs` pass;
    with ``on_insufficient="raise"`` the first pair (in list order) with
    fewer than two reference nodes raises.
    """
    scores = batcher.estimate_pairs(
        [row_of[event_a] for event_a, _ in pair_list],
        [row_of[event_b] for _, event_b in pair_list],
    )
    results: List[RankedPair] = []
    for (event_a, event_b), n, estimate, z_score, degenerate in zip(
        pair_list, *(column.tolist() for column in scores)
    ):
        if n < 2:
            if on_insufficient == "raise":
                raise InsufficientSampleError(
                    f"pair ({event_a!r}, {event_b!r}) has only "
                    f"{n} reference nodes in the shared sample"
                )
            results.append(
                RankedPair(
                    rank=0, event_a=event_a, event_b=event_b,
                    score=0.0, z_score=0.0, p_value=1.0,
                    verdict=CorrelationVerdict.INDEPENDENT,
                    num_reference_nodes=n,
                    degenerate=True, insufficient=True,
                )
            )
            continue
        significance = decide(z_score, cfg.alpha, cfg.alternative)
        results.append(
            RankedPair(
                rank=0, event_a=event_a, event_b=event_b,
                score=estimate,
                z_score=z_score,
                p_value=significance.p_value,
                verdict=significance.verdict,
                num_reference_nodes=n,
                degenerate=degenerate,
            )
        )
    return results


class BatchTescEngine:
    """Amortised TESC testing and ranking over many event pairs.

    Parameters
    ----------
    attributed:
        The attributed graph to test on.
    config:
        The :class:`~repro.core.config.TescConfig` every
        :meth:`rank_pairs` call runs under.  Only *uniform* samplers
        ("batch_bfs", "exhaustive", "whole_graph", "reject") are supported:
        importance weights are defined relative to the population they were
        drawn from and do not survive the per-pair restriction.
    workers:
        Density threads; see :func:`~repro.utils.validation.resolve_workers`.
        ``None``/1 (the default) counts every column in the calling thread.
        Rankings are bit-identical for every worker count.

    The engine holds no threads, samples or matrices between calls: each
    :meth:`rank_pairs` call draws and counts afresh.

    Examples
    --------
    >>> from repro.graph.generators import community_ring_graph
    >>> from repro.events import AttributedGraph
    >>> graph = community_ring_graph(8, 40, 5.0, 10, random_state=3)
    >>> attributed = AttributedGraph(
    ...     graph, {"a": range(0, 30), "b": range(10, 40), "c": range(160, 200)}
    ... )
    >>> config = TescConfig(sample_size=120, random_state=3)
    >>> ranking = BatchTescEngine(attributed, config).rank_pairs("all")
    >>> len(ranking)
    3
    >>> ranking[0].rank
    1
    >>> threaded = BatchTescEngine(attributed, config, workers=2).rank_pairs("all")
    >>> [pair.score for pair in threaded] == [pair.score for pair in ranking]
    True
    """

    def __init__(
        self,
        attributed: AttributedGraph,
        config: Optional[TescConfig] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.attributed = attributed
        self.config = config if config is not None else TescConfig()
        self.workers = resolve_workers(workers)
        self._density_computer = DensityComputer(attributed.csr, workers=self.workers)

    # -- the public API --------------------------------------------------------

    def rank_pairs(
        self,
        pairs: PairSpec = "all",
        top_k: Optional[int] = None,
        sort_by: str = "score",
        on_insufficient: str = "keep",
    ) -> PairRanking:
        """Test every pair in ``pairs`` and return them ranked.

        Parameters
        ----------
        pairs:
            ``"all"`` for every unordered pair of the graph's events, or an
            explicit sequence of ``(event_a, event_b)`` tuples.
        top_k:
            Keep only the ``k`` best-ranked pairs (all pairs when ``None``).
        sort_by:
            ``"score"`` (default; most attracting first), ``"z_score"``,
            ``"abs_z"`` (most significant in either direction first) or
            ``"p_value"`` (smallest first).
        on_insufficient:
            ``"keep"`` (default) records pairs whose restricted population
            has fewer than two reference nodes as independent with
            ``insufficient=True``; ``"raise"`` raises
            :class:`~repro.exceptions.InsufficientSampleError` instead.
        """
        check_rank_options(sort_by, on_insufficient)
        cfg = self.config

        pair_list = resolve_pair_spec(self.attributed.event_names(), pairs)
        events = sorted({event for pair in pair_list for event in pair})
        row_of = {event: row for row, event in enumerate(events)}
        # Building every indicator up front surfaces unknown events before
        # any sampling work happens.
        indicators = self.attributed.indicator_matrix(events)
        ensure_uniform_sampler(cfg)

        universe = event_universe(self.attributed, events)
        with stage("sampling"):
            sample = draw_shared_sample(self.attributed, universe, cfg)
        bfs_engine = self._density_computer.engine
        bfs_before = bfs_engine.bfs_calls
        with stage("density"):
            matrix = self._density_computer.density_matrix(
                sample.nodes, indicators, cfg.vicinity_level
            )
        stats = BatchStats(
            num_events=len(events),
            num_pairs=len(pair_list),
            density_passes=1,
            density_bfs_calls=bfs_engine.bfs_calls - bfs_before,
            workers=self.workers,
            shards=max(1, min(self.workers, sample.nodes.size)),
        )

        with stage("estimate", pairs=len(pair_list)):
            results = estimate_pair_list(
                pair_list, row_of, PairEstimateBatcher(matrix.densities),
                cfg, on_insufficient,
            )

        return PairRanking(
            pairs=finalise_ranking(results, sort_by, top_k),
            vicinity_level=cfg.vicinity_level,
            sort_by=sort_by,
            alpha=cfg.alpha,
            sample=sample,
            stats=stats,
        )


def _sort_value(pair: RankedPair, sort_by: str) -> tuple:
    if sort_by == "score":
        primary = -pair.score
    elif sort_by == "z_score":
        primary = -pair.z_score
    elif sort_by == "abs_z":
        primary = -abs(pair.z_score)
    else:  # p_value — most significant first, direction-agnostic
        primary = pair.p_value
    # Deterministic tie-break so equal statistics rank stably.
    return (primary, pair.event_a, pair.event_b)


def finalise_ranking(
    results: Iterable[RankedPair],
    sort_by: str,
    top_k: Optional[int] = None,
) -> Tuple[RankedPair, ...]:
    """Sort unranked pair results and assign 1-based ranks.

    Shared by every engine: because the sort key is a deterministic total
    order (statistic plus event-name tie-break), the final ranking does not
    depend on the order the results were computed in.
    """
    ordered = sorted(results, key=lambda pair: _sort_value(pair, sort_by))
    if top_k is not None:
        ordered = ordered[: max(int(top_k), 0)]
    return tuple(
        RankedPair(
            rank=position + 1, event_a=pair.event_a, event_b=pair.event_b,
            score=pair.score, z_score=pair.z_score, p_value=pair.p_value,
            verdict=pair.verdict,
            num_reference_nodes=pair.num_reference_nodes,
            degenerate=pair.degenerate, insufficient=pair.insufficient,
        )
        for position, pair in enumerate(ordered)
    )


def rank_pairs(
    attributed: AttributedGraph,
    pairs: PairSpec = "all",
    top_k: Optional[int] = None,
    sort_by: str = "score",
    vicinity_level: int = 1,
    workers: Optional[int] = None,
    **config_kwargs,
) -> PairRanking:
    """One-call convenience wrapper around :class:`BatchTescEngine`.

    ``config_kwargs`` accepts any :class:`~repro.core.config.TescConfig`
    field, e.g. ``sample_size=900``, ``sampler="exhaustive"`` or
    ``random_state=42``.  ``workers`` > 1 splits the density pass across
    that many threads; the results are identical to the serial engine's.

    Examples
    --------
    >>> from repro.graph.generators import erdos_renyi_graph
    >>> from repro.events import AttributedGraph
    >>> graph = erdos_renyi_graph(300, 0.02, random_state=7)
    >>> attributed = AttributedGraph(
    ...     graph, {"a": range(0, 40), "b": range(20, 60), "c": range(200, 240)}
    ... )
    >>> ranking = rank_pairs(attributed, "all", sample_size=100, random_state=7)
    >>> [pair.rank for pair in ranking]
    [1, 2, 3]
    """
    config = TescConfig(vicinity_level=vicinity_level, **config_kwargs)
    return BatchTescEngine(attributed, config, workers=workers).rank_pairs(
        pairs, top_k=top_k, sort_by=sort_by
    )
