"""Parallel pair ranking over the persistent shared-memory worker pool.

:class:`ParallelBatchTescEngine` is the multi-core sibling of
:class:`~repro.core.batch.BatchTescEngine`.  Earlier revisions forked a
process pool per engine and re-ran the whole density pass inside every pair
shard; with the O(n log n) kernels that spin-up and duplicated traversal
cost more than the ranking itself (the BENCH_pr5 regression).  The engine
now decomposes the work so that nothing is duplicated and nothing is forked
per call:

1. **One sample, drawn once, in the parent.**  The parent draws the shared
   reference sample over the union universe exactly as the serial engine
   would (same sampler, same RNG stream), so every downstream quantity is
   **bit-identical to the serial engine** in exhaustive and sampled mode
   alike.
2. **One density pass, column-sharded.**  The grouped multi-source BFS
   treats reference nodes independently, so the sample's columns are split
   into contiguous slices — one per worker — and reassembled exactly
   (:func:`~repro.service.pool.pooled_density_matrix`).  Unlike the old
   pair-sharded design, no worker repeats another's traversal: total CPU
   stays at serial cost.
3. **Pair-sharded estimates over shared memory.**  The assembled matrix is
   published once to :mod:`multiprocessing.shared_memory` and each worker
   scores a round-robin pair shard with the same restricted-vector
   arithmetic as the serial engine (:func:`estimate_matrix_pairs_sharded`).
4. **Deterministic merge.**  Shard results are merged in the parent and
   ranked with the serial total order (statistic plus event-name
   tie-break), so the final ranking does not depend on sharding or
   completion order.

All dispatch goes through the process-wide
:class:`~repro.service.pool.PersistentWorkerPool`: workers are spawned once
per process lifetime and reused by every engine (batch, progressive top-k,
streaming, the correlation service), with datasets crossing the process
boundary as version-memoised shared-memory blocks rather than per-call
pickles.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import (
    MAX_CACHED_MATRICES,
    SORT_KEYS,
    BatchStats,
    BatchTescEngine,
    PairRanking,
    PairSpec,
    RankedPair,
    estimate_pair_list,
    finalise_ranking,
)
from repro.core.config import TescConfig
from repro.core.density import DensityMatrix
from repro.events.attributed_graph import AttributedGraph
from repro.exceptions import ConfigurationError
from repro.obs.trace import attach_remote, propagation, stage


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` request into a concrete positive count.

    ``None`` and ``1`` mean serial; ``0`` and negative values mean "one per
    available core"; any other positive integer is used as given.
    """
    if workers is None:
        return 1
    count = int(workers)
    if count <= 0:
        return os.cpu_count() or 1
    return count


def shard_pairs(
    pair_list: Sequence[Tuple[str, str]], num_shards: int
) -> List[List[Tuple[str, str]]]:
    """Deal pairs round-robin into at most ``num_shards`` non-empty shards.

    Round-robin keeps shard sizes within one pair of each other, so the
    slowest worker finishes at most one pair's work behind the rest.
    """
    num_shards = max(1, min(int(num_shards), len(pair_list)))
    shards: List[List[Tuple[str, str]]] = [[] for _ in range(num_shards)]
    for position, pair in enumerate(pair_list):
        shards[position % num_shards].append(pair)
    return shards


def shard_seeds(
    random_state, count: int
) -> List[Optional[int]]:
    """Derive one deterministic integer seed per shard from the root state.

    Integer (or :class:`numpy.random.SeedSequence`) roots are spawned into
    independent child sequences — shard ``i`` gets the same seed for the same
    root no matter how the pair list is sharded.  ``None`` stays ``None``
    (fresh entropy), and generator roots also map to ``None`` rather than
    consuming draws from the caller's stream.  Today's shards consume no
    randomness — the sample is drawn by the parent — so this is plumbing for
    future stochastic estimators.
    """
    if count <= 0:
        return []
    if isinstance(random_state, np.random.SeedSequence):
        # Spawn from a snapshot: SeedSequence.spawn mutates its counter, so
        # spawning the caller's object would yield different seeds on every
        # call (and would perturb the caller's own stream).
        sequence = np.random.SeedSequence(
            entropy=random_state.entropy, spawn_key=random_state.spawn_key
        )
    elif isinstance(random_state, (int, np.integer)):
        sequence = np.random.SeedSequence(int(random_state))
    else:
        return [None] * count
    return [
        int(child.generate_state(1, dtype=np.uint64)[0] >> 1)
        for child in sequence.spawn(count)
    ]


def estimate_matrix_shard(
    matrix: DensityMatrix,
    row_of: Dict[str, int],
    shard: List[Tuple[str, str]],
    config_kwargs: Dict[str, object],
    on_insufficient: str,
) -> List[RankedPair]:
    """Estimate one pair shard against an already-built density matrix.

    The in-process reference implementation of what
    :func:`~repro.service.pool._estimate_shard_task` runs inside a pool
    worker: the plain restricted-vector path of
    :func:`~repro.core.batch.estimate_pair_list`, numerically identical to
    the serial engine's shared-rank-vector path.
    """
    cfg = TescConfig(**config_kwargs)
    return estimate_pair_list(shard, row_of, matrix, None, cfg, on_insufficient)


def estimate_matrix_pairs_sharded(
    pool,
    matrix: DensityMatrix,
    row_of: Dict[str, int],
    pair_list: Sequence[Tuple[str, str]],
    cfg: TescConfig,
    on_insufficient: str,
    num_shards: int,
) -> List[RankedPair]:
    """Fan pair estimates over the persistent pool through shared memory.

    The density matrix is published to shared memory once, each worker
    scores a round-robin slice of ``pair_list`` against it, and the blocks
    are unlinked before returning.  Results come back in deterministic
    (submission) order, so callers get the same multiset of
    :class:`~repro.core.batch.RankedPair` regardless of worker count — the
    progressive top-k engine's final re-score and the service engine's
    pooled estimate phase both rely on this for their bit-identity
    guarantees.

    ``pool`` is a :class:`~repro.service.pool.PersistentWorkerPool`
    (typically :func:`~repro.service.pool.global_pool`).
    """
    from repro.service.pool import _estimate_shard_task, publish_matrix, release_matrix

    shards = shard_pairs(pair_list, num_shards)
    base_kwargs = asdict(cfg)
    base_kwargs["random_state"] = None
    matrix_ref = publish_matrix(matrix)
    span_ctx = propagation()
    try:
        shard_outputs = pool.run_tasks(
            _estimate_shard_task,
            [
                (matrix_ref, row_of, shard, base_kwargs, on_insufficient, span_ctx)
                for shard in shards
            ],
            workers=num_shards,
        )
    finally:
        release_matrix(matrix_ref)
    results: List[RankedPair] = []
    for shard_result, record in shard_outputs:
        results.extend(shard_result)
        attach_remote(record)
    return results


class ParallelBatchTescEngine:
    """Column/pair-sharded TESC pair ranking over the persistent pool.

    Parameters
    ----------
    attributed:
        The attributed graph to test on.
    config:
        Default :class:`~repro.core.config.TescConfig` (same restrictions as
        the serial engine: uniform samplers only).
    workers:
        Worker-process count; see :func:`resolve_workers`.  ``1`` (the
        default) degrades to the serial engine in-process — the pool is
        never touched — so the engine is safe to use unconditionally.
    mp_context:
        Optional :mod:`multiprocessing` start-method name.  ``None`` (the
        default) shares the process-wide persistent pool; naming a method
        gives this engine a private pool with that start method, torn down
        by :meth:`close`.

    Notes
    -----
    With the default shared pool, :meth:`close` (and the context-manager
    exit) is a no-op for the pool itself: workers persist for the process
    lifetime precisely so repeated calls never pay fork start-up again.

    Examples
    --------
    >>> from repro.graph.generators import community_ring_graph
    >>> from repro.events import AttributedGraph
    >>> graph = community_ring_graph(8, 40, 5.0, 10, random_state=3)
    >>> attributed = AttributedGraph(
    ...     graph, {"a": range(0, 30), "b": range(10, 40), "c": range(160, 200)}
    ... )
    >>> config = TescConfig(sample_size=120, random_state=3)
    >>> with ParallelBatchTescEngine(attributed, config, workers=2) as engine:
    ...     ranking = engine.rank_pairs("all")
    >>> len(ranking)
    3
    """

    def __init__(
        self,
        attributed: AttributedGraph,
        config: Optional[TescConfig] = None,
        workers: Optional[int] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        self.attributed = attributed
        self.config = config if config is not None else TescConfig()
        self.workers = resolve_workers(workers)
        self._serial = BatchTescEngine(attributed, self.config)
        self._private_pool = None
        self._mp_context = mp_context
        self._matrices: Dict[tuple, DensityMatrix] = {}
        self.stats = BatchStats(workers=self.workers)

    # -- pool plumbing -------------------------------------------------------

    def _pool(self):
        if self._mp_context is None:
            from repro.service.pool import global_pool

            return global_pool()
        if self._private_pool is None:
            from repro.service.pool import PersistentWorkerPool

            self._private_pool = PersistentWorkerPool(mp_context=self._mp_context)
        return self._private_pool

    def close(self) -> None:
        """Release engine-held resources (idempotent).

        A private pool (explicit ``mp_context``) is shut down; the shared
        process-wide pool deliberately survives — its whole point is to
        outlive individual engines.
        """
        if self._private_pool is not None:
            self._private_pool.shutdown()
            self._private_pool = None
        self._matrices.clear()

    def __enter__(self) -> "ParallelBatchTescEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- the public API ------------------------------------------------------

    def rank_pairs(
        self,
        pairs: PairSpec = "all",
        top_k: Optional[int] = None,
        sort_by: str = "score",
        config: Optional[TescConfig] = None,
        on_insufficient: str = "keep",
        workers: Optional[int] = None,
    ) -> PairRanking:
        """Test every pair in ``pairs`` across the worker pool, ranked.

        Same contract as :meth:`BatchTescEngine.rank_pairs`, with results
        guaranteed identical to the serial engine's; ``workers`` optionally
        overrides the engine-level count for this call.
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
        worker_count = (
            resolve_workers(workers) if workers is not None else self.workers
        )
        pair_list = self._serial._resolve_pairs(pairs)
        if worker_count <= 1 or len(pair_list) < 2:
            # Hand the serial engine the resolved list — resolving drained
            # ``pairs`` if the caller passed a one-shot iterable.
            ranking = self._serial.rank_pairs(
                pair_list, top_k=top_k, sort_by=sort_by, config=cfg,
                on_insufficient=on_insufficient,
            )
            self._accumulate(ranking.stats)
            return ranking

        call_stats = BatchStats(workers=worker_count)

        events = sorted({event for pair in pair_list for event in pair})
        row_of = {event: row for row, event in enumerate(events)}
        # Touching every indicator up front surfaces unknown events in the
        # parent before any worker is involved.
        self.attributed.indicator_matrix(events)
        universe = self._serial._universe(events)
        with stage("sampling"):
            sample, matrix_key = self._serial._shared_sample(
                cfg, universe, call_stats
            )

        pool = self._pool()
        with stage("density", workers=worker_count):
            matrix = self._matrix(
                matrix_key + (tuple(events),), pool, sample.nodes, events, cfg,
                worker_count, call_stats,
            )
        with stage("estimate", workers=worker_count):
            results = estimate_matrix_pairs_sharded(
                pool, matrix, row_of, pair_list, cfg, on_insufficient,
                worker_count,
            )

        ranked = finalise_ranking(results, sort_by, top_k)

        call_stats.num_events = len(events)
        call_stats.num_pairs = len(pair_list)
        call_stats.shards = len(shard_pairs(pair_list, worker_count))
        self._accumulate(call_stats)
        return PairRanking(
            pairs=ranked,
            vicinity_level=cfg.vicinity_level,
            sort_by=sort_by,
            alpha=cfg.alpha,
            sample=sample,
            stats=call_stats,
        )

    def _matrix(
        self,
        key: tuple,
        pool,
        sample_nodes: np.ndarray,
        events: Sequence[str],
        cfg: TescConfig,
        worker_count: int,
        call_stats: BatchStats,
    ) -> DensityMatrix:
        """The shared density matrix for this call, pool-computed on miss.

        Cached under the same ``(sampler, universe, level, size, events)``
        key the serial engine uses, so repeated calls re-dispatch nothing.
        """
        cached = self._matrices.get(key)
        if cached is not None:
            return cached
        from repro.service.pool import pooled_density_matrix

        matrix, bfs_calls = pooled_density_matrix(
            pool, self.attributed, sample_nodes, events,
            cfg.vicinity_level, worker_count,
        )
        call_stats.density_passes += 1
        call_stats.density_bfs_calls += bfs_calls
        while len(self._matrices) >= MAX_CACHED_MATRICES:
            del self._matrices[next(iter(self._matrices))]
        self._matrices[key] = matrix
        return matrix

    def _accumulate(self, call_stats: BatchStats) -> None:
        self.stats.num_events = call_stats.num_events
        self.stats.num_pairs += call_stats.num_pairs
        self.stats.samples_drawn += call_stats.samples_drawn
        self.stats.sample_cache_hits += call_stats.sample_cache_hits
        self.stats.density_passes += call_stats.density_passes
        self.stats.density_bfs_calls += call_stats.density_bfs_calls
        self.stats.shards = call_stats.shards


def rank_pairs_parallel(
    attributed: AttributedGraph,
    pairs: PairSpec = "all",
    workers: Optional[int] = 0,
    top_k: Optional[int] = None,
    sort_by: str = "score",
    vicinity_level: int = 1,
    **config_kwargs,
) -> PairRanking:
    """One-call convenience wrapper around :class:`ParallelBatchTescEngine`.

    ``workers`` defaults to one per available core (``0``).  The persistent
    pool stays warm after the call — that is the point.
    """
    config = TescConfig(vicinity_level=vicinity_level, **config_kwargs)
    with ParallelBatchTescEngine(attributed, config, workers=workers) as engine:
        return engine.rank_pairs(pairs, top_k=top_k, sort_by=sort_by)
