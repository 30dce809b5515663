"""Batch pair-testing and ranking engine.

The paper's headline workloads (Tables 1–5, keyword correlation, intrusion
alerts) all test *many* event pairs on one graph, yet
:meth:`~repro.core.tesc.TescTester.test` pays sampling, vicinity-index and
density costs once per pair.  :class:`BatchTescEngine` amortises that work
across a whole pair set:

1. **One shared reference sample per (event-universe, level).**  The engine
   samples the reference population of the *union* of all events being
   ranked, through a :class:`~repro.sampling.cache.CachingSampler`, so the
   sampling pass (and the vicinity index a sampler may need) runs at most
   once per level no matter how many pairs are tested.
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
   runs through the size-dispatched kernels of
   :mod:`repro.stats.fast_kendall` (``O(n log n)`` merge sort above the
   crossover, the vectorised naive kernel below it).

The entry points are :meth:`BatchTescEngine.rank_pairs` (object API) and
:func:`rank_pairs` (one-call convenience), both returning a
:class:`PairRanking`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import TescConfig
from repro.core.density import DensityComputer, DensityMatrix
from repro.core.estimators import (
    EstimateComponents,
    PairEstimateBatcher,
    plain_estimate,
)
from repro.events.attributed_graph import AttributedGraph
from repro.exceptions import ConfigurationError, InsufficientSampleError
from repro.obs.trace import stage
from repro.sampling.base import ReferenceSample
from repro.sampling.cache import CachingSampler, event_nodes_fingerprint
from repro.sampling.registry import create_sampler
from repro.stats.hypothesis import CorrelationVerdict, decide
from repro.utils.tables import TextTable

#: Ranking keys accepted by :meth:`BatchTescEngine.rank_pairs`.
SORT_KEYS = ("score", "z_score", "abs_z", "p_value")

#: Samplers whose draws carry importance weights; those weights are defined
#: relative to the population they were drawn from and cannot be restricted
#: to per-pair populations, so the batch engine rejects them up front.
WEIGHTED_SAMPLERS = ("importance", "batch_importance")

#: Samplers that need the ``|V^h_v|`` vicinity-size index to draw.
INDEXED_SAMPLERS = ("importance", "batch_importance", "reject")

#: How many density matrices (each with its per-event O(n) rank vectors)
#: an engine retains before evicting the oldest.
MAX_CACHED_MATRICES = 8


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
    """Cost accounting for batch ranking.

    Each :class:`PairRanking` carries the stats of the call that produced it;
    :attr:`BatchTescEngine.stats` accumulates the same counters over the
    engine's lifetime.  The point of the batch engine is that
    ``samples_drawn`` and ``density_bfs_calls`` stay independent of the
    number of pairs; these counters make that claim checkable (and are
    asserted on in the tests).  ``workers`` is the density-thread count and
    ``shards`` the number of column slices its density pass splits into.
    """

    num_events: int = 0
    num_pairs: int = 0
    samples_drawn: int = 0
    sample_cache_hits: int = 0
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


def ensure_uniform_sampler(cfg: TescConfig, caller: str = "the batch engine") -> None:
    """Reject sampler configs whose draws carry importance weights.

    Weighted draws are defined relative to the population they were drawn
    from and cannot be restricted to per-pair populations, so every engine
    built on a shared sample (batch, parallel, streaming, progressive top-k)
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


def make_config_sampler(attributed: AttributedGraph, cfg: TescConfig):
    """A fresh sampler for ``cfg`` over ``attributed`` (freshly seeded RNG).

    The single place that knows how a :class:`~repro.core.config.TescConfig`
    maps to a sampler instance (registry lookup, vicinity-index wiring,
    ``batch_per_vicinity``).  The batch engine wraps the result in a
    :class:`~repro.sampling.cache.CachingSampler`; the service engine's
    :class:`~repro.sampling.cache.SampleMemo` calls this on every miss —
    sharing the factory is what keeps a per-epoch redraw bit-identical to a
    from-scratch engine's draw.
    """
    vicinity_index = (
        attributed.vicinity_index(levels=(cfg.vicinity_level,))
        if cfg.sampler in INDEXED_SAMPLERS
        else None
    )
    return create_sampler(
        cfg.sampler,
        attributed.csr,
        vicinity_index=vicinity_index,
        random_state=cfg.random_state,
        batch_per_vicinity=cfg.batch_per_vicinity,
    )


def event_universe(attributed: AttributedGraph, events: Sequence[str]) -> np.ndarray:
    """The union node set ``V_U`` of the given events, sorted and distinct.

    Shared by the batch and service engines so both derive the sampling
    universe with identical ordering.
    """
    arrays = [attributed.event_nodes(event) for event in events]
    return np.unique(np.concatenate(arrays)) if arrays else np.empty(0, np.int64)


def resolve_pair_spec(event_names: Sequence[str], pairs: PairSpec) -> List[Tuple[str, str]]:
    """Normalise a :data:`PairSpec` into an explicit ``(a, b)`` pair list.

    ``"all"`` expands to every unordered pair of ``event_names``; explicit
    sequences are validated (two distinct events per pair, at least one
    pair).  Shared by :class:`BatchTescEngine`, the parallel engine and the
    service engine.
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
    matrix: DensityMatrix,
    batcher: Optional[PairEstimateBatcher],
    cfg: TescConfig,
    on_insufficient: str,
    columns: Optional[Sequence[np.ndarray]] = None,
) -> List[RankedPair]:
    """Per-pair estimates over a shared density matrix (unranked).

    This is the per-pair half of :meth:`BatchTescEngine.rank_pairs`, exposed
    at module level so the progressive top-k and service engines run exactly
    the same arithmetic on their pair lists.

    ``batcher=None`` computes each pair directly with
    :func:`~repro.core.estimators.plain_estimate` on the restricted density
    vectors instead of gathering shared rank vectors.  The two paths are
    numerically identical (asserted in the estimator tests); the batcher
    amortises the rank encoding across many pairs sharing events, the plain
    path wins when only a few pairs are being (re-)scored.

    ``columns`` optionally supplies each pair's
    :meth:`~repro.core.density.DensityMatrix.pair_rows`, aligned with
    ``pair_list``, for callers that already computed them.
    """
    results: List[RankedPair] = []
    for index, (event_a, event_b) in enumerate(pair_list):
        row_a, row_b = row_of[event_a], row_of[event_b]
        pair_columns = (
            matrix.pair_rows(row_a, row_b) if columns is None else columns[index]
        )
        if pair_columns.size < 2:
            if on_insufficient == "raise":
                raise InsufficientSampleError(
                    f"pair ({event_a!r}, {event_b!r}) has only "
                    f"{pair_columns.size} reference nodes in the shared sample"
                )
            results.append(
                RankedPair(
                    rank=0, event_a=event_a, event_b=event_b,
                    score=0.0, z_score=0.0, p_value=1.0,
                    verdict=CorrelationVerdict.INDEPENDENT,
                    num_reference_nodes=int(pair_columns.size),
                    degenerate=True, insufficient=True,
                )
            )
            continue
        if batcher is None:
            components: EstimateComponents = plain_estimate(
                matrix.densities[row_a, pair_columns],
                matrix.densities[row_b, pair_columns],
            )
        else:
            components = batcher.estimate_pair(row_a, row_b, pair_columns)
        significance = decide(components.z_score, cfg.alpha, cfg.alternative)
        results.append(
            RankedPair(
                rank=0, event_a=event_a, event_b=event_b,
                score=components.estimate,
                z_score=components.z_score,
                p_value=significance.p_value,
                verdict=significance.verdict,
                num_reference_nodes=components.num_reference_nodes,
                degenerate=components.degenerate,
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
        Default :class:`~repro.core.config.TescConfig`; individual
        :meth:`rank_pairs` calls may override it.  Only *uniform* samplers
        ("batch_bfs", "exhaustive", "whole_graph", "reject") are supported:
        importance weights are defined relative to the population they were
        drawn from and do not survive the per-pair restriction.

    Examples
    --------
    >>> from repro.graph.generators import community_ring_graph
    >>> from repro.events import AttributedGraph
    >>> graph = community_ring_graph(8, 40, 5.0, 10, random_state=3)
    >>> attributed = AttributedGraph(
    ...     graph, {"a": range(0, 30), "b": range(10, 40), "c": range(160, 200)}
    ... )
    >>> engine = BatchTescEngine(attributed, TescConfig(sample_size=120, random_state=3))
    >>> ranking = engine.rank_pairs("all")
    >>> len(ranking)
    3
    >>> ranking[0].rank
    1
    """

    def __init__(self, attributed: AttributedGraph,
                 config: Optional[TescConfig] = None) -> None:
        from repro.deprecation import warn_deprecated_construction

        warn_deprecated_construction(
            "BatchTescEngine", "open_session(graph, config).rank(...)"
        )
        self.attributed = attributed
        self.config = config if config is not None else TescConfig()
        self._density_computer = DensityComputer(attributed.csr)
        self._samplers: Dict[tuple, CachingSampler] = {}
        self._matrices: Dict[tuple, Tuple[DensityMatrix, PairEstimateBatcher]] = {}
        self.stats = BatchStats()

    # -- pair/universe resolution ---------------------------------------------

    def _resolve_pairs(self, pairs: PairSpec) -> List[Tuple[str, str]]:
        return resolve_pair_spec(self.attributed.event_names(), pairs)

    def _universe(self, events: Sequence[str]) -> np.ndarray:
        return event_universe(self.attributed, events)

    # -- shared-resource caches -----------------------------------------------

    def _sampler_key(self, cfg: TescConfig) -> tuple:
        seed = cfg.random_state
        seed_token = seed if seed is None or isinstance(seed, int) else id(seed)
        return (cfg.sampler, cfg.batch_per_vicinity, seed_token)

    def _sampler(self, cfg: TescConfig) -> CachingSampler:
        key = self._sampler_key(cfg)
        cached = self._samplers.get(key)
        if cached is None:
            cached = CachingSampler(make_config_sampler(self.attributed, cfg))
            self._samplers[key] = cached
        return cached

    def _shared_sample(self, cfg: TescConfig, universe: np.ndarray,
                       call_stats: BatchStats) -> Tuple[ReferenceSample, tuple]:
        ensure_uniform_sampler(cfg)
        sampler = self._sampler(cfg)
        misses_before = sampler.misses
        sample = sampler.sample(universe, cfg.vicinity_level, cfg.sample_size)
        if sampler.misses > misses_before:
            call_stats.samples_drawn += 1
        else:
            call_stats.sample_cache_hits += 1
        ensure_uniform_sample(sample, cfg.sampler)
        matrix_key = self._sampler_key(cfg) + (
            event_nodes_fingerprint(universe), cfg.vicinity_level, cfg.sample_size,
        )
        return sample, matrix_key

    def _matrix_for(self, cfg: TescConfig, events: Sequence[str],
                    sample: ReferenceSample, matrix_key: tuple,
                    call_stats: BatchStats
                    ) -> Tuple[DensityMatrix, PairEstimateBatcher]:
        """The shared density matrix and its rank-vector batcher, cached."""
        key = matrix_key + (tuple(events),)
        cached = self._matrices.get(key)
        if cached is None:
            engine = self._density_computer.engine
            bfs_before = engine.bfs_calls
            indicators = self.attributed.indicator_matrix(events)
            matrix = self._density_computer.density_matrix(
                sample.nodes, indicators, cfg.vicinity_level
            )
            while len(self._matrices) >= MAX_CACHED_MATRICES:
                del self._matrices[next(iter(self._matrices))]
            cached = self._matrices[key] = (matrix, PairEstimateBatcher(matrix.densities))
            call_stats.density_passes += 1
            call_stats.density_bfs_calls += engine.bfs_calls - bfs_before
        return cached

    # -- the public API --------------------------------------------------------

    def rank_pairs(
        self,
        pairs: PairSpec = "all",
        top_k: Optional[int] = None,
        sort_by: str = "score",
        config: Optional[TescConfig] = None,
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
        config:
            Per-call :class:`~repro.core.config.TescConfig` override.
        on_insufficient:
            ``"keep"`` (default) records pairs whose restricted population
            has fewer than two reference nodes as independent with
            ``insufficient=True``; ``"raise"`` raises
            :class:`~repro.exceptions.InsufficientSampleError` instead.
        """
        if sort_by not in SORT_KEYS:
            raise ConfigurationError(
                f"sort_by must be one of {SORT_KEYS}, got {sort_by!r}"
            )
        if on_insufficient not in ("keep", "raise"):
            raise ConfigurationError(
                f'on_insufficient must be "keep" or "raise", got {on_insufficient!r}'
            )
        cfg = config if config is not None else self.config
        workers = self._density_computer.workers
        call_stats = BatchStats(workers=workers)

        pair_list = self._resolve_pairs(pairs)
        # Sorted row layout so pair sets naming the same events (in any
        # order) share one cached density matrix and rank-vector set.
        events = sorted({event for pair in pair_list for event in pair})
        row_of = {event: row for row, event in enumerate(events)}
        # Touching every indicator up front surfaces unknown events before
        # any sampling work happens.
        self.attributed.indicator_matrix(events)

        universe = self._universe(events)
        with stage("sampling"):
            sample, matrix_key = self._shared_sample(cfg, universe, call_stats)
        call_stats.shards = max(1, min(workers, sample.nodes.size))
        with stage("density"):
            matrix, batcher = self._matrix_for(
                cfg, events, sample, matrix_key, call_stats
            )

        with stage("estimate", pairs=len(pair_list)):
            results = self._estimate_pair_list(
                pair_list, row_of, matrix, batcher, cfg, on_insufficient
            )

        ranked = finalise_ranking(results, sort_by, top_k)

        call_stats.num_events = len(events)
        call_stats.num_pairs = len(pair_list)
        self._accumulate(call_stats)
        return PairRanking(
            pairs=ranked,
            vicinity_level=cfg.vicinity_level,
            sort_by=sort_by,
            alpha=cfg.alpha,
            sample=sample,
            stats=call_stats,
        )

    def _estimate_pair_list(
        self,
        pair_list: Sequence[Tuple[str, str]],
        row_of: Dict[str, int],
        matrix: DensityMatrix,
        batcher: PairEstimateBatcher,
        cfg: TescConfig,
        on_insufficient: str,
    ) -> List[RankedPair]:
        """Per-pair estimates over a shared density matrix (unranked).

        Delegates to the module-level :func:`estimate_pair_list`, which the
        progressive top-k and service engines also call so every execution
        mode runs exactly the same arithmetic.
        """
        return estimate_pair_list(
            pair_list, row_of, matrix, batcher, cfg, on_insufficient
        )

    def estimate_pairs_on_nodes(
        self,
        pairs: PairSpec,
        reference_nodes: np.ndarray,
        config: Optional[TescConfig] = None,
        on_insufficient: str = "keep",
    ) -> List[RankedPair]:
        """Estimate pairs against an externally supplied reference-node set.

        No sampling happens: the caller provides the (already drawn) shared
        reference nodes and this method runs only the density pass and the
        per-pair estimates, e.g. to score pairs on the reference nodes of an
        earlier :meth:`rank_pairs` call.  Returned pairs are unranked
        (``rank=0``) and in input order.
        """
        cfg = config if config is not None else self.config
        call_stats = BatchStats()

        pair_list = self._resolve_pairs(pairs)
        events = sorted({event for pair in pair_list for event in pair})
        row_of = {event: row for row, event in enumerate(events)}
        self.attributed.indicator_matrix(events)

        nodes = np.unique(np.asarray(reference_nodes, dtype=np.int64))
        sample = ReferenceSample(
            nodes=nodes,
            frequencies=np.ones(nodes.size, dtype=np.int64),
            probabilities=None,
            weighted=False,
            population_size=None,
        )
        matrix_key = self._sampler_key(cfg) + (
            event_nodes_fingerprint(nodes), cfg.vicinity_level, int(nodes.size),
        )
        matrix, batcher = self._matrix_for(
            cfg, events, sample, matrix_key, call_stats
        )
        results = self._estimate_pair_list(
            pair_list, row_of, matrix, batcher, cfg, on_insufficient
        )

        call_stats.num_events = len(events)
        call_stats.num_pairs = len(pair_list)
        self._accumulate(call_stats)
        return results

    def _accumulate(self, call_stats: BatchStats) -> None:
        """Fold one call's counters into the engine-lifetime :attr:`stats`."""
        self.stats.num_events = call_stats.num_events
        self.stats.num_pairs += call_stats.num_pairs
        self.stats.samples_drawn += call_stats.samples_drawn
        self.stats.sample_cache_hits += call_stats.sample_cache_hits
        self.stats.density_passes += call_stats.density_passes
        self.stats.density_bfs_calls += call_stats.density_bfs_calls
        self.stats.shards = call_stats.shards


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
    that many threads via :class:`~repro.core.parallel.ParallelBatchTescEngine`;
    the results are identical to the serial engine's.

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
    if workers is not None:
        from repro.core.parallel import ParallelBatchTescEngine, resolve_workers

        if resolve_workers(workers) > 1:
            with ParallelBatchTescEngine(attributed, config, workers=workers) as engine:
                return engine.rank_pairs(pairs, top_k=top_k, sort_by=sort_by)
    return BatchTescEngine(attributed, config).rank_pairs(
        pairs, top_k=top_k, sort_by=sort_by
    )
