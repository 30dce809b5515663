"""Multi-core pair ranking: the batch engine with a thread-sharded density pass.

:class:`ParallelBatchTescEngine` is :class:`~repro.core.batch.BatchTescEngine`
with ``workers`` density threads.  Every step but one runs exactly as in the
serial engine, in the calling thread: the shared reference sample is drawn
once (same sampler, same RNG stream), and every pair is estimated through
the same rank-vector batcher.  The one step that gains from more cores is
the grouped-BFS density pass; it treats reference nodes independently, so
its columns are split into contiguous slices counted on separate threads and
reassembled exactly (:func:`~repro.service.pool.pooled_density_matrix`).
Rankings are therefore **bit-identical to the serial engine** for every
worker count, in exhaustive and sampled mode alike.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.batch import BatchTescEngine, PairRanking, PairSpec
from repro.core.config import TescConfig
from repro.core.density import DensityComputer
from repro.events.attributed_graph import AttributedGraph


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


class ParallelBatchTescEngine(BatchTescEngine):
    """TESC pair ranking whose density pass runs on ``workers`` threads.

    Parameters
    ----------
    attributed:
        The attributed graph to test on.
    config:
        Default :class:`~repro.core.config.TescConfig` (same restrictions as
        the serial engine: uniform samplers only).
    workers:
        Density threads; see :func:`resolve_workers`.  ``1`` (the default)
        is the serial engine.

    The engine holds no threads between calls; :meth:`close` only drops
    its caches.

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
    ) -> None:
        super().__init__(attributed, config)
        self.workers = resolve_workers(workers)
        self._density_computer = DensityComputer(attributed.csr, workers=self.workers)
        self.stats.workers = self.workers

    def close(self) -> None:
        """Drop the cached samples and density matrices (idempotent)."""
        self._samplers.clear()
        self._matrices.clear()

    def __enter__(self) -> "ParallelBatchTescEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


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

    ``workers`` defaults to one density thread per available core (``0``).
    """
    config = TescConfig(vicinity_level=vicinity_level, **config_kwargs)
    with ParallelBatchTescEngine(attributed, config, workers=workers) as engine:
        return engine.rank_pairs(pairs, top_k=top_k, sort_by=sort_by)
